package server

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/ingest"
)

func recordOf(svc, msg string) ingest.Record {
	return ingest.Record{Service: svc, Message: msg}
}

func octetFrame(msg string) string {
	return fmt.Sprintf("%d %s", len(msg), msg)
}

func collectFrames(t *testing.T, in string, max int) (frames []string, tooLong int) {
	t.Helper()
	fr := newFrameReader(strings.NewReader(in), max)
	for {
		frame, long, err := fr.next()
		if long {
			tooLong++
			continue
		}
		if err == io.EOF {
			return frames, tooLong
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		frames = append(frames, string(frame))
	}
}

func TestFrameReaderNewline(t *testing.T) {
	frames, tooLong := collectFrames(t, "<13>first\n<13>second\n<13>third", 1024)
	want := []string{"<13>first", "<13>second", "<13>third"}
	if len(frames) != len(want) {
		t.Fatalf("frames = %q, want %q", frames, want)
	}
	for i := range want {
		if frames[i] != want[i] {
			t.Errorf("frame %d = %q, want %q", i, frames[i], want[i])
		}
	}
	if tooLong != 0 {
		t.Errorf("tooLong = %d, want 0", tooLong)
	}
}

func TestFrameReaderOctetCounting(t *testing.T) {
	msg1 := "<13>Feb  5 17:32:18 host app: one"
	msg2 := "<13>Feb  5 17:32:18 host app: two"
	in := octetFrame(msg1) + octetFrame(msg2)
	frames, _ := collectFrames(t, in, 1024)
	if len(frames) != 2 || frames[0] != msg1 || frames[1] != msg2 {
		t.Fatalf("frames = %q", frames)
	}
}

func TestFrameReaderMixedFramings(t *testing.T) {
	// RFC 6587 senders pick one framing, but a reconnect can switch;
	// the reader detects per frame.
	msgA := "<13>octet framed message"
	in := octetFrame(msgA) + "<13>newline framed\n" + octetFrame(msgA)
	frames, _ := collectFrames(t, in, 1024)
	want := []string{msgA, "<13>newline framed", msgA}
	if len(frames) != 3 {
		t.Fatalf("frames = %q, want %q", frames, want)
	}
	for i := range want {
		if frames[i] != want[i] {
			t.Errorf("frame %d = %q, want %q", i, frames[i], want[i])
		}
	}
}

func TestFrameReaderOversizedLineDiscarded(t *testing.T) {
	huge := strings.Repeat("x", 200)
	in := "<13>ok one\n<13>" + huge + "\n<13>ok two\n"
	frames, tooLong := collectFrames(t, in, 64)
	if tooLong != 1 {
		t.Errorf("tooLong = %d, want 1", tooLong)
	}
	if len(frames) != 2 || frames[0] != "<13>ok one" || frames[1] != "<13>ok two" {
		t.Fatalf("frames = %q", frames)
	}
}

func TestFrameReaderOversizedOctetFrameDiscarded(t *testing.T) {
	huge := strings.Repeat("y", 500)
	in := octetFrame("<13>small") + octetFrame(huge) + octetFrame("<13>after")
	frames, tooLong := collectFrames(t, in, 64)
	if tooLong != 1 {
		t.Errorf("tooLong = %d, want 1", tooLong)
	}
	if len(frames) != 2 || frames[0] != "<13>small" || frames[1] != "<13>after" {
		t.Fatalf("frames = %q", frames)
	}
}

// TestFrameReaderOversizedLineBetweenOctetFrames checks that the line
// reader and the octet-counting path read one buffered stream: an
// oversized LF line, longer than the buffer, is discarded between two
// octet-counted frames without either path losing the other's bytes.
func TestFrameReaderOversizedLineBetweenOctetFrames(t *testing.T) {
	huge := "<13>" + strings.Repeat("w", 300)
	in := octetFrame("<13>before") + huge + "\n" + octetFrame("<13>after")
	frames, tooLong := collectFrames(t, in, 64)
	if tooLong != 1 {
		t.Errorf("tooLong = %d, want 1", tooLong)
	}
	if len(frames) != 2 || frames[0] != "<13>before" || frames[1] != "<13>after" {
		t.Fatalf("frames = %q", frames)
	}
}

func TestFrameReaderExactMaxLine(t *testing.T) {
	line := "<13>" + strings.Repeat("z", 60) // 64 bytes == max
	frames, tooLong := collectFrames(t, line+"\n", 64)
	if tooLong != 0 {
		t.Fatalf("tooLong = %d for an exactly-max line", tooLong)
	}
	if len(frames) != 1 || frames[0] != line {
		t.Fatalf("frames = %q", frames)
	}
}

func TestFrameReaderBadOctetLength(t *testing.T) {
	fr := newFrameReader(strings.NewReader("12x not a frame"), 1024)
	if _, _, err := fr.next(); err != errBadFrame {
		t.Fatalf("err = %v, want errBadFrame", err)
	}
}

func TestFrameReaderTruncatedOctetFrame(t *testing.T) {
	fr := newFrameReader(strings.NewReader("100 only a few bytes"), 1024)
	if _, _, err := fr.next(); err != errConnClosed {
		t.Fatalf("err = %v, want errConnClosed", err)
	}
}

func TestFrameReaderFinalLineWithoutNewline(t *testing.T) {
	frames, _ := collectFrames(t, "<13>unterminated", 1024)
	if len(frames) != 1 || frames[0] != "<13>unterminated" {
		t.Fatalf("frames = %q", frames)
	}
}

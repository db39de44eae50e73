package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// encode returns one frame of payload opened by marker.
func encode(t *testing.T, marker byte, payload []byte) []byte {
	t.Helper()
	buf := Begin(nil)
	buf = append(buf, payload...)
	buf, err := End(buf, 0, marker)
	if err != nil {
		t.Fatalf("End: %v", err)
	}
	return buf
}

func TestSplitFailures(t *testing.T) {
	valid := encode(t, 0x00, []byte("payload"))
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	overLimit := binary.AppendUvarint([]byte{0x00}, MaxPayload+1)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, errEmpty},
		{"marker", mutate(func(b []byte) []byte { b[0] = 0x01; return b }), errMarker},
		{"length", []byte{0x00, 0x80, 0x80}, errLength},
		{"length limit", overLimit, errLengthLimit},
		{"checksum truncated", valid[:4], errChecksumTruncate},
		{"payload truncated", valid[:len(valid)-1], errTruncated},
		{"trailing", append(append([]byte(nil), valid...), 0x00), errTrailing},
		{"checksum", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }), errChecksum},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			payload, err := Split(c.data, 0x00)
			if !errors.Is(err, c.want) {
				t.Fatalf("Split = (%q, %v), want %v", payload, err, c.want)
			}
		})
	}
	if payload, err := Split(valid, 0x00); err != nil || string(payload) != "payload" {
		t.Fatalf("control: Split(valid) = (%q, %v)", payload, err)
	}
}

// TestEndSplitRoundTrip crosses the payload lengths at which the
// uvarint length prefix changes width, so End must shift the payload
// down over a different share of the reserved header.
func TestEndSplitRoundTrip(t *testing.T) {
	for _, n := range []int{0, 127, 128, 16383, 16384} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + 1)
		}
		prefix := []byte("earlier frames")
		buf := append([]byte(nil), prefix...)
		start := len(buf)
		buf = Begin(buf)
		buf = append(buf, payload...)
		buf, err := End(buf, start, 0x01)
		if err != nil {
			t.Fatalf("n=%d: End: %v", n, err)
		}
		if !bytes.Equal(buf[:start], prefix) {
			t.Fatalf("n=%d: End changed the bytes before the frame", n)
		}
		want := 1 + len(binary.AppendUvarint(nil, uint64(n))) + 4 + n
		if got := len(buf) - start; got != want {
			t.Fatalf("n=%d: frame is %d bytes, want %d", n, got, want)
		}
		got, err := Split(buf[start:], 0x01)
		if err != nil {
			t.Fatalf("n=%d: Split: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: payload did not round-trip", n)
		}
	}
}

func TestEndTooLarge(t *testing.T) {
	// One allocation holds the whole oversized frame.
	buf := append(make([]byte, 0, 4+maxHeader+MaxPayload+1), "kept"...)
	start := len(buf)
	buf = Begin(buf)
	buf = buf[:len(buf)+MaxPayload+1]
	buf, err := End(buf, start, 0x00)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("End over the limit = %v, want ErrTooLarge", err)
	}
	if string(buf) != "kept" {
		t.Fatalf("buf after a failed End is %d bytes, want the original 4", len(buf))
	}
}

func TestDecoder(t *testing.T) {
	var buf []byte
	buf = append(buf, 7)
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, -5)
	buf = AppendString(buf, "sshd")
	buf = append(buf, "raw"...)
	d := NewDecoder(buf)
	if b, u, s, str := d.Byte(), d.Uvarint(), d.Svarint(), d.Str(); b != 7 || u != 300 || s != -5 || str != "sshd" {
		t.Fatalf("decoded (%d, %d, %d, %q)", b, u, s, str)
	}
	if raw := d.Take(3); string(raw) != "raw" || d.Len() != 0 || d.Reason() != "" {
		t.Fatalf("Take = %q, Len %d, Reason %q", raw, d.Len(), d.Reason())
	}

	// The first failure sticks and later reads return zero values.
	d = NewDecoder(AppendString(nil, "ab")[:2])
	if s := d.Str(); s != "" || d.Reason() != "length exceeds payload" {
		t.Fatalf("short string: %q, reason %q", s, d.Reason())
	}
	d.Fail("second failure")
	if d.Reason() != "length exceeds payload" {
		t.Fatalf("reason after a second Fail = %q", d.Reason())
	}
	d = NewDecoder(nil)
	if b := d.Byte(); b != 0 || d.Reason() != "payload truncated" {
		t.Fatalf("Byte on empty: %d, reason %q", b, d.Reason())
	}
	if u := d.Uvarint(); u != 0 || d.Reason() != "payload truncated" {
		t.Fatalf("Uvarint after failure: %d, reason %q", u, d.Reason())
	}
	d = NewDecoder([]byte{0x80})
	if d.Uvarint(); d.Reason() != "bad uvarint" {
		t.Fatalf("reason %q, want bad uvarint", d.Reason())
	}
	d = NewDecoder([]byte{0x80})
	if d.Svarint(); d.Reason() != "bad svarint" {
		t.Fatalf("reason %q, want bad svarint", d.Reason())
	}
}

// TestFrameAllocs pins the encoder at zero allocations once the buffer
// is warm: the journal and the archive frame every record and block
// through it.
func TestFrameAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = Begin(buf[:0])
		buf = append(buf, 'u')
		buf = AppendString(buf, "a pattern ID")
		var err error
		if buf, err = End(buf, 0, 0x00); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Begin/End allocated %.1f times per frame, want 0", allocs)
	}
}

package server

import (
	"bufio"
	"io"

	"repro/internal/ingest"
)

// frameReader extracts syslog messages from a TCP stream, supporting
// both RFC 6587 framings and auto-detecting them per frame:
//
//   - octet counting: "MSG-LEN SP MSG", MSG-LEN a decimal byte count.
//     A frame always starts with a non-zero digit, which no syslog
//     message does (they start with '<'), so detection is unambiguous.
//   - non-transparent framing: messages separated by LF.
//
// Frames larger than max are consumed and discarded (tooLong=true) so
// one absurd sender cannot park the connection or the daemon's memory.
// LF frames are read by an ingest.LineReader; octet-counted frames are
// read from the same buffered stream, so the two framings stay in step.
type frameReader struct {
	lines *ingest.LineReader
	br    *bufio.Reader // lines' stream
	max   int
	buf   []byte
}

func newFrameReader(r io.Reader, max int) *frameReader {
	lines := ingest.NewLineReader(r, max)
	return &frameReader{lines: lines, br: lines.Stream(), max: max}
}

// next returns the next frame. tooLong reports an oversized frame that
// was discarded (frame is nil then). err is io.EOF at a clean end of
// stream, or the underlying read error.
func (f *frameReader) next() (frame []byte, tooLong bool, err error) {
	c, err := f.br.ReadByte()
	if err != nil {
		return nil, false, err
	}
	if c >= '1' && c <= '9' {
		return f.nextOctetCounted(int(c - '0'))
	}
	if err := f.br.UnreadByte(); err != nil {
		return nil, false, err
	}
	line, tooLong, err := f.lines.Next()
	if tooLong {
		return nil, true, err
	}
	// A line of nothing but line-end bytes and NULs is an empty frame,
	// which the listener skips.
	return trimTrailingEOL(line), false, err
}

// nextOctetCounted reads "MSG-LEN SP MSG" with the first length digit
// already consumed.
func (f *frameReader) nextOctetCounted(n int) ([]byte, bool, error) {
	for digits := 1; ; digits++ {
		c, err := f.br.ReadByte()
		if err != nil {
			return nil, false, f.eofMidFrame(err)
		}
		if c == ' ' {
			break
		}
		if c < '0' || c > '9' || digits >= 9 {
			return nil, false, errBadFrame
		}
		n = n*10 + int(c-'0')
	}
	if n > f.max {
		// Consume the advertised payload so the stream stays in sync,
		// but never buffer it.
		if _, err := f.br.Discard(n); err != nil {
			return nil, true, f.eofMidFrame(err)
		}
		return nil, true, nil
	}
	if cap(f.buf) < n {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	if _, err := io.ReadFull(f.br, f.buf); err != nil {
		return nil, false, f.eofMidFrame(err)
	}
	return f.buf, false, nil
}

// eofMidFrame upgrades an EOF inside a frame to a framing error: the
// peer closed the connection mid-message.
func (f *frameReader) eofMidFrame(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errConnClosed
	}
	return err
}

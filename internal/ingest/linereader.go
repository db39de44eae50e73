package ingest

import (
	"bufio"
	"io"
)

// LineReader yields newline-terminated lines from a stream with a hard
// per-line byte bound. Unlike bufio.Scanner — whose ErrTooLong is
// terminal — a line exceeding the bound is not fatal: the overlong line
// is discarded (a truncated prefix is kept for error context) and
// scanning resumes at the next line. A production ingester must survive
// one absurd message in a multi-day stream. The JSON-lines Reader and
// the syslog TCP listener both read lines through it.
type LineReader struct {
	br  *bufio.Reader
	max int
	buf []byte
}

// NewLineReader returns a LineReader over r that bounds each line at
// max bytes. It buffers min(max, 64 KiB) bytes of r, at least 16, so a
// line longer than the buffer is only accumulated up to the bound.
func NewLineReader(r io.Reader, max int) *LineReader {
	size := 64 * 1024
	if max < size {
		size = max
	}
	if size < 16 {
		size = 16
	}
	return &LineReader{br: bufio.NewReaderSize(r, size), max: max}
}

// Stream returns the buffered stream lines are read from. A caller that
// interleaves another framing with lines reads it from this same
// buffer, so neither reader loses bytes the other has buffered.
func (lr *LineReader) Stream() *bufio.Reader { return lr.br }

// Next returns the next line without its trailing newline (a trailing
// \r is stripped too, matching bufio.ScanLines). When the line exceeded
// the bound, tooLong is true and line holds only a truncated prefix of
// the discarded content. err is io.EOF once the stream is exhausted, or
// the underlying read error; a line and an error are never returned
// together except when tooLong reports the discarded line that the
// error interrupted.
func (lr *LineReader) Next() (line []byte, tooLong bool, err error) {
	lr.buf = lr.buf[:0]
	for {
		chunk, err := lr.br.ReadSlice('\n')
		lr.buf = append(lr.buf, chunk...)
		if err == bufio.ErrBufferFull {
			if len(lr.buf) > lr.max {
				return lr.prefix(), true, lr.discard()
			}
			continue
		}
		if err != nil && err != io.EOF {
			return nil, false, err
		}
		if len(lr.buf) == 0 {
			// err is io.EOF here: nothing buffered means a clean end.
			return nil, false, io.EOF
		}
		line = trimEOL(lr.buf)
		if len(line) > lr.max {
			// The line fit the reader's buffer but exceeds the bound.
			return lr.prefix(), true, nil
		}
		// A final unterminated line is delivered now; the io.EOF
		// resurfaces on the next call.
		return line, false, nil
	}
}

// discard consumes the remainder of an oversized line, up to and
// including its newline. io.EOF inside the discarded line is absorbed
// (the caller reports tooLong now and sees io.EOF on the next call).
func (lr *LineReader) discard() error {
	for {
		_, err := lr.br.ReadSlice('\n')
		switch err {
		case nil, io.EOF:
			return nil
		case bufio.ErrBufferFull:
			continue
		default:
			return err
		}
	}
}

// prefix returns the start of the oversized line, bounded for error
// context.
func (lr *LineReader) prefix() []byte {
	if len(lr.buf) > rawSample {
		return lr.buf[:rawSample]
	}
	return lr.buf
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

package codec

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
)

// Reader decodes a journal stream record by record, auto-detecting the
// format of each record from its first byte: '{' opens a v1 JSON line,
// 0x00 opens a v2 binary frame. A file written partly in each format
// therefore replays in order with no out-of-band format knowledge.
type Reader struct {
	br  *bufio.Reader
	off int64
	buf []byte // v2 payload scratch, reused across records
}

// NewReader wraps a journal stream. r is buffered internally.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// Offset returns the byte offset of the next record (or, after an
// error, of the damaged record).
func (r *Reader) Offset() int64 { return r.off }

// Next decodes the next record into rec (which is reset first) and
// returns the format that encoded it. io.EOF signals the clean end of
// the journal. Any other failure is a *CorruptError: a torn final
// record after a crash, or real corruption — the caller keeps every
// record decoded before it and must not trust anything after.
func (r *Reader) Next(rec *Record) (Format, error) {
	*rec = Record{}
	for {
		c, err := r.br.ReadByte()
		if errors.Is(err, io.EOF) {
			return "", io.EOF
		}
		if err != nil {
			return "", r.corrupt("read", err)
		}
		switch c {
		case ' ', '\t', '\r', '\n':
			// Inter-record whitespace: the v1 JSON stream decoder
			// tolerated it, so the replacement does too.
			r.off++
			continue
		case '{':
			if err := r.br.UnreadByte(); err != nil {
				return "", r.corrupt("unread", err)
			}
			return FormatV1, r.nextV1(rec)
		case v2Marker:
			r.off++
			return FormatV2, r.nextV2(rec)
		default:
			return "", r.corrupt("record starts with neither '{' nor the v2 frame marker", nil)
		}
	}
}

func (r *Reader) corrupt(reason string, err error) error {
	return &CorruptError{Off: r.off, Reason: reason, Err: err}
}

// nextV1 decodes one newline-terminated JSON line. A final line cut off
// by a crash usually fails to parse and reads as torn; a tear that
// happens to fall exactly after the closing brace still parses, exactly
// as it did under the stream decoder this replaces.
func (r *Reader) nextV1(rec *Record) error {
	line, err := r.br.ReadBytes('\n')
	if err != nil && !errors.Is(err, io.EOF) {
		return r.corrupt("read v1 line", err)
	}
	if jerr := json.Unmarshal(line, rec); jerr != nil {
		return r.corrupt("bad v1 record", jerr)
	}
	r.off += int64(len(line))
	return nil
}

// nextV2 decodes one v2 frame; the marker byte is already consumed.
func (r *Reader) nextV2(rec *Record) error {
	start := r.off - 1
	n, err := r.readUvarint()
	if err != nil {
		return &CorruptError{Off: start, Reason: "bad frame length", Err: err}
	}
	if n > v2MaxPayload {
		return &CorruptError{Off: start, Reason: "frame length exceeds limit"}
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r.br, crcb[:]); err != nil {
		return &CorruptError{Off: start, Reason: "frame checksum truncated", Err: err}
	}
	r.off += 4
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	payload := r.buf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return &CorruptError{Off: start, Reason: "frame payload truncated", Err: err}
	}
	r.off += int64(n)
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return &CorruptError{Off: start, Reason: "frame checksum mismatch"}
	}
	if err := decodeV2Payload(payload, rec); err != nil {
		return &CorruptError{Off: start, Reason: "bad v2 record", Err: err}
	}
	return nil
}

// readUvarint is binary.ReadUvarint with offset accounting.
func (r *Reader) readUvarint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		c, err := r.br.ReadByte()
		if err != nil {
			return 0, err
		}
		r.off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("uvarint overflows 64 bits")
}

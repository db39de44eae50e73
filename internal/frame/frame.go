// Package frame owns the checksummed frame every binary file of the
// repo is made of: journal records (internal/store/codec), archive
// blocks and segment footers (internal/archive). A frame is
//
//	byte                     marker (chosen by the format: the journal
//	                         and block frames use 0x00, the segment
//	                         footer 0x01)
//	uvarint                  payload length, at most MaxPayload
//	4 bytes, little-endian   CRC-32C (Castagnoli) of the payload
//	payload
//
// The package also holds the primitives the payloads share: strings
// are a uvarint length plus the raw bytes (AppendString), and Decoder
// reads payload fields with a sticky first failure. What a payload
// means stays with its format's package; each wraps a failure reported
// here in its own corruption error.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// MaxPayload bounds a frame payload (64 MiB). Real frames are a few
// hundred bytes to a few hundred KiB; the cap rejects a garbage length
// prefix early, so a corrupt file cannot make a reader attempt a
// multi-gigabyte read.
const MaxPayload = 1 << 26

// maxHeader is the worst-case header size: marker, uvarint payload
// length, CRC.
const maxHeader = 1 + binary.MaxVarintLen64 + 4

// zeroHeader reserves header space in the encode buffer without
// allocating.
var zeroHeader [maxHeader]byte

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum returns the CRC-32C of payload, the checksum a frame header
// carries.
func Sum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// ErrTooLarge is returned by End for a payload over MaxPayload. It is a
// sentinel so that the encode path stays allocation-free.
var ErrTooLarge = errors.New("frame: payload exceeds the 64 MiB limit")

// Split failures. Each names one way a slice fails to be exactly one
// whole frame; the texts are the reasons the archive reports.
var (
	errEmpty            = errors.New("empty file")
	errMarker           = errors.New("bad frame marker")
	errLength           = errors.New("bad payload length")
	errLengthLimit      = errors.New("payload length exceeds limit")
	errChecksumTruncate = errors.New("frame truncated before checksum")
	errTruncated        = errors.New("frame truncated")
	errTrailing         = errors.New("trailing bytes after frame")
	errChecksum         = errors.New("checksum mismatch")
)

// Begin opens a frame at the end of buf by reserving room for its
// header; the caller appends the payload and closes the frame with
// End(buf, start, marker), where start is len(buf) before Begin.
//
//seqrtg:noalloc
func Begin(buf []byte) []byte { return append(buf, zeroHeader[:]...) }

// End closes the frame opened by Begin at buf[start]. The length prefix
// is itself variable-width, so the payload was appended at the
// worst-case offset; End writes the real header and shifts the payload
// down over the unused remainder (a memmove of the payload, no second
// encoding pass, no second buffer). A payload over MaxPayload returns
// ErrTooLarge with buf cut back to start.
//
//seqrtg:noalloc
func End(buf []byte, start int, marker byte) ([]byte, error) {
	payload := buf[start+maxHeader:]
	if len(payload) > MaxPayload {
		return buf[:start], ErrTooLarge
	}
	var hdr [maxHeader]byte
	hdr[0] = marker
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], Sum(payload))
	n += 4
	copy(buf[start:], hdr[:n])
	if n < maxHeader {
		copy(buf[start+n:], payload)
		buf = buf[:start+n+len(payload)]
	}
	return buf, nil
}

// AppendString appends s as a uvarint length plus its raw bytes.
//
//seqrtg:noalloc
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Split checks that data is exactly one whole frame opened by marker
// and returns its payload, a view into data. A failure is one of the
// err values above.
func Split(data []byte, marker byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, errEmpty
	}
	if data[0] != marker {
		return nil, errMarker
	}
	plen, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return nil, errLength
	}
	if plen > MaxPayload {
		return nil, errLengthLimit
	}
	rest := data[1+n:]
	if len(rest) < 4 {
		return nil, errChecksumTruncate
	}
	sum := binary.LittleEndian.Uint32(rest)
	payload := rest[4:]
	if uint64(len(payload)) < plen {
		return nil, errTruncated
	}
	if uint64(len(payload)) > plen {
		return nil, errTrailing
	}
	if Sum(payload) != sum {
		return nil, errChecksum
	}
	return payload, nil
}

// Decoder reads the fields of a payload. The first failure sticks:
// every later read returns a zero value, and the caller checks Reason
// once at the end.
type Decoder struct {
	b      []byte
	i      int
	reason string
}

// NewDecoder returns a Decoder at the start of b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Fail records reason as the decoder's failure unless one is already
// recorded.
func (d *Decoder) Fail(reason string) {
	if d.reason == "" {
		d.reason = reason
	}
}

// Reason returns the first failure, or "" when every read succeeded.
func (d *Decoder) Reason() string { return d.reason }

// Len returns the number of unread bytes. A count read from the
// payload that exceeds it is garbage and must not size an allocation.
func (d *Decoder) Len() int { return len(d.b) - d.i }

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.reason != "" {
		return 0
	}
	if d.i >= len(d.b) {
		d.Fail("payload truncated")
		return 0
	}
	c := d.b[d.i]
	d.i++
	return c
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.reason != "" {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		d.Fail("bad uvarint")
		return 0
	}
	d.i += n
	return v
}

// Svarint reads a signed (zig-zag) varint.
func (d *Decoder) Svarint() int64 {
	if d.reason != "" {
		return 0
	}
	v, n := binary.Varint(d.b[d.i:])
	if n <= 0 {
		d.Fail("bad svarint")
		return 0
	}
	d.i += n
	return v
}

// Take reads the next n bytes, a view into the payload.
func (d *Decoder) Take(n uint64) []byte {
	if d.reason != "" {
		return nil
	}
	if n > uint64(d.Len()) {
		d.Fail("length exceeds payload")
		return nil
	}
	b := d.b[d.i : d.i+int(n)]
	d.i += int(n)
	return b
}

// Bytes reads a uvarint length and then that many bytes, a view into
// the payload.
func (d *Decoder) Bytes() []byte { return d.Take(d.Uvarint()) }

// Str reads a string written by AppendString.
func (d *Decoder) Str() string { return string(d.Bytes()) }

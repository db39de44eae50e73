package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/patterns"
	"repro/internal/token"
)

// The v2 journal format. Each record is one self-delimiting frame:
//
//	0x00                     frame marker (a JSON value can never start
//	                         with NUL, so v1 and v2 records coexist in
//	                         one file and are told apart per record)
//	uvarint                  payload length
//	4 bytes, little-endian   CRC-32C (Castagnoli) of the payload
//	payload
//
// The payload is:
//
//	byte                     op: 'u' upsert, 't' touch, 'd' delete
//	svarint                  compaction epoch
//	op-specific fields       see appendPattern / touch / delete below
//
// with the primitive encodings
//
//	string   uvarint length + raw bytes
//	time     byte 0 for the zero time, else byte 1 + svarint unix
//	         seconds + uvarint nanoseconds — exact for every time.Time
//	         instant (only the instant is kept: monotonic clock and
//	         location, which journal replay never consults, are dropped)
//
// A decoder failure of any kind — short frame, CRC mismatch, bad
// varint, trailing payload bytes — is reported as a torn record, never
// as a partial decode.

// v2Marker opens every v2 frame.
const v2Marker = 0x00

// v2MaxPayload bounds a frame payload (64 MiB). Real records are a few
// hundred bytes; the cap rejects garbage length prefixes early so a
// corrupt tail cannot make the reader attempt a multi-gigabyte read.
const v2MaxPayload = 1 << 26

// castagnoli is the CRC-32C table used by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// v2MaxHeader is the worst-case frame header size: marker, uvarint
// payload length, CRC.
const v2MaxHeader = 1 + binary.MaxVarintLen64 + 4

// zeroHeader reserves header space in the encode buffer without
// allocating.
var zeroHeader [v2MaxHeader]byte

// Encode errors are sentinels, not formatted errors, so that every path
// through AppendRecord stays allocation-free.
var (
	errUnknownOp = errors.New("codec: record op has no v2 encoding")
	errTooLarge  = errors.New("codec: record payload exceeds the v2 frame limit")
)

// element flag bits.
const (
	elemVar         = 1 << 0
	elemSpaceBefore = 1 << 1
)

// pattern flag bits.
const patMultiline = 1 << 0

// time flag bytes.
const (
	timeZero = 0
	timeSet  = 1
)

// AppendRecord appends the v2 frame of r to buf and returns the extended
// slice. Neither buf nor r is retained, so a caller's stack-local record
// stays on the stack; with buf's capacity warm nothing is allocated.
//
//seqrtg:noalloc
func AppendRecord(buf []byte, r *Record) ([]byte, error) {
	var op byte
	switch r.Op {
	case OpUpsert:
		op = 'u'
	case OpTouch:
		op = 't'
	case OpDelete:
		op = 'd'
	default:
		return buf, errUnknownOp
	}
	// Reserve the header, encode the payload in place, then patch the
	// header in. The length prefix is itself variable-width, so the
	// payload is encoded at a fixed worst-case offset and shifted only
	// when the actual uvarint is shorter (records small enough for that
	// are memmoved a few bytes; no second encoding pass, no second
	// buffer).
	base := len(buf)
	buf = append(buf, zeroHeader[:]...)
	buf = append(buf, op)
	buf = appendSvarint(buf, r.E)
	switch op {
	case 'u':
		buf = appendPattern(buf, r.Pattern)
	case 't':
		buf = appendString(buf, r.ID)
		buf = appendSvarint(buf, r.N)
		buf = appendTime(buf, r.When)
		buf = appendString(buf, r.Example)
	case 'd':
		buf = appendString(buf, r.ID)
	}
	payload := buf[base+v2MaxHeader:]
	if len(payload) > v2MaxPayload {
		return buf[:base], errTooLarge
	}
	var hdr [v2MaxHeader]byte
	hdr[0] = v2Marker
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(payload, castagnoli))
	n += 4
	copy(buf[base:], hdr[:n])
	if n < v2MaxHeader {
		copy(buf[base+n:], payload)
		buf = buf[:base+n+len(payload)]
	}
	return buf, nil
}

//seqrtg:noalloc
func appendPattern(buf []byte, p *patterns.Pattern) []byte {
	if p == nil {
		// Presence byte: a v1 journal can hold {"op":"upsert"} with no
		// pattern (replay ignores it), and transcoding must be lossless.
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = appendString(buf, p.ID)
	buf = appendString(buf, p.Service)
	buf = appendSvarint(buf, p.Count)
	buf = appendTime(buf, p.FirstSeen)
	buf = appendTime(buf, p.LastMatched)
	var flags byte
	if p.Multiline {
		flags |= patMultiline
	}
	buf = append(buf, flags)
	buf = appendUvarint(buf, uint64(len(p.Elements)))
	for i := range p.Elements {
		e := &p.Elements[i]
		buf = append(buf, byte(e.Type))
		var ef byte
		if e.Var {
			ef |= elemVar
		}
		if e.SpaceBefore {
			ef |= elemSpaceBefore
		}
		buf = append(buf, ef)
		buf = appendString(buf, e.Value)
		buf = appendString(buf, e.Name)
		buf = appendString(buf, e.Key)
	}
	buf = appendUvarint(buf, uint64(len(p.Examples)))
	for _, ex := range p.Examples {
		buf = appendString(buf, ex)
	}
	return buf
}

//seqrtg:noalloc
func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

//seqrtg:noalloc
func appendSvarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

//seqrtg:noalloc
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

//seqrtg:noalloc
func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(buf, timeZero)
	}
	buf = append(buf, timeSet)
	buf = binary.AppendVarint(buf, t.Unix())
	return binary.AppendUvarint(buf, uint64(t.Nanosecond()))
}

// payloadDecoder walks a checksummed v2 payload. The first failure
// sticks: every subsequent read returns zero values and the caller
// checks err once at the end.
type payloadDecoder struct {
	b   []byte
	i   int
	err error
}

func (d *payloadDecoder) fail(reason string) {
	if d.err == nil {
		d.err = fmt.Errorf("codec: %s", reason)
	}
}

func (d *payloadDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.i >= len(d.b) {
		d.fail("payload truncated")
		return 0
	}
	c := d.b[d.i]
	d.i++
	return c
}

func (d *payloadDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.i += n
	return v
}

func (d *payloadDecoder) svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.i:])
	if n <= 0 {
		d.fail("bad svarint")
		return 0
	}
	d.i += n
	return v
}

func (d *payloadDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.i) {
		d.fail("string length exceeds payload")
		return ""
	}
	s := string(d.b[d.i : d.i+int(n)])
	d.i += int(n)
	return s
}

func (d *payloadDecoder) time() time.Time {
	switch d.byte() {
	case timeZero:
		return time.Time{}
	case timeSet:
		sec := d.svarint()
		nsec := d.uvarint()
		if nsec >= 1e9 {
			d.fail("nanoseconds out of range")
			return time.Time{}
		}
		if d.err != nil {
			return time.Time{}
		}
		return time.Unix(sec, int64(nsec))
	default:
		d.fail("bad time flag")
		return time.Time{}
	}
}

// decodeV2Payload decodes one checksummed payload into rec. The CRC has
// already been verified by the Reader, so any failure here means the
// encoder and decoder disagree — it is still reported as corruption
// rather than trusted partially.
func decodeV2Payload(b []byte, rec *Record) error {
	d := &payloadDecoder{b: b}
	switch d.byte() {
	case 'u':
		rec.Op = OpUpsert
	case 't':
		rec.Op = OpTouch
	case 'd':
		rec.Op = OpDelete
	default:
		d.fail("unknown op")
	}
	rec.E = d.svarint()
	switch rec.Op {
	case OpUpsert:
		rec.Pattern = decodePattern(d)
	case OpTouch:
		rec.ID = d.str()
		rec.N = d.svarint()
		rec.When = d.time()
		rec.Example = d.str()
	case OpDelete:
		rec.ID = d.str()
	}
	if d.err == nil && d.i != len(d.b) {
		d.fail("trailing payload bytes")
	}
	return d.err
}

func decodePattern(d *payloadDecoder) *patterns.Pattern {
	switch d.byte() {
	case 0:
		return nil
	case 1:
	default:
		d.fail("bad pattern presence byte")
		return nil
	}
	p := &patterns.Pattern{}
	p.ID = d.str()
	p.Service = d.str()
	p.Count = d.svarint()
	p.FirstSeen = d.time()
	p.LastMatched = d.time()
	flags := d.byte()
	p.Multiline = flags&patMultiline != 0
	nelem := d.uvarint()
	if nelem > uint64(len(d.b)-d.i) {
		// Every element costs at least five payload bytes; a count past
		// the remaining length is garbage and must not size a make().
		d.fail("element count exceeds payload")
		return nil
	}
	if d.err != nil {
		return nil
	}
	if nelem > 0 {
		p.Elements = make([]patterns.Element, 0, nelem)
	}
	for range nelem {
		var e patterns.Element
		e.Type = token.Type(d.byte())
		ef := d.byte()
		e.Var = ef&elemVar != 0
		e.SpaceBefore = ef&elemSpaceBefore != 0
		e.Value = d.str()
		e.Name = d.str()
		e.Key = d.str()
		if d.err != nil {
			return nil
		}
		p.Elements = append(p.Elements, e)
	}
	nex := d.uvarint()
	if nex > uint64(len(d.b)-d.i) {
		d.fail("example count exceeds payload")
		return nil
	}
	if d.err != nil {
		return nil
	}
	if nex > 0 {
		p.Examples = make([]string, 0, nex)
	}
	for range nex {
		s := d.str()
		if d.err != nil {
			return nil
		}
		p.Examples = append(p.Examples, s)
	}
	return p
}

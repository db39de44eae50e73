package codec

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/frame"
	"repro/internal/patterns"
	"repro/internal/token"
)

// The v2 journal format. Each record is one internal/frame frame with
// the marker 0x00: a JSON value can never start with NUL, so v1 and v2
// records coexist in one file and are told apart per record. The
// payload is:
//
//	byte                     op: 'u' upsert, 't' touch, 'd' delete
//	svarint                  compaction epoch
//	op-specific fields       see appendPattern / touch / delete below
//
// with strings as frame.AppendString writes them and
//
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

// errUnknownOp is a sentinel, not a formatted error, so that every path
// through AppendRecord stays allocation-free.
var errUnknownOp = errors.New("codec: record op has no v2 encoding")

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
	base := len(buf)
	buf = frame.Begin(buf)
	buf = append(buf, op)
	buf = binary.AppendVarint(buf, r.E)
	switch op {
	case 'u':
		buf = appendPattern(buf, r.Pattern)
	case 't':
		buf = frame.AppendString(buf, r.ID)
		buf = binary.AppendVarint(buf, r.N)
		buf = appendTime(buf, r.When)
		buf = frame.AppendString(buf, r.Example)
	case 'd':
		buf = frame.AppendString(buf, r.ID)
	}
	return frame.End(buf, base, v2Marker)
}

//seqrtg:noalloc
func appendPattern(buf []byte, p *patterns.Pattern) []byte {
	if p == nil {
		// Presence byte: a v1 journal can hold {"op":"upsert"} with no
		// pattern (replay ignores it), and transcoding must be lossless.
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = frame.AppendString(buf, p.ID)
	buf = frame.AppendString(buf, p.Service)
	buf = binary.AppendVarint(buf, p.Count)
	buf = appendTime(buf, p.FirstSeen)
	buf = appendTime(buf, p.LastMatched)
	var flags byte
	if p.Multiline {
		flags |= patMultiline
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(p.Elements)))
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
		buf = frame.AppendString(buf, e.Value)
		buf = frame.AppendString(buf, e.Name)
		buf = frame.AppendString(buf, e.Key)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Examples)))
	for _, ex := range p.Examples {
		buf = frame.AppendString(buf, ex)
	}
	return buf
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

// decodeTime reads a time written by appendTime.
func decodeTime(d *frame.Decoder) time.Time {
	switch d.Byte() {
	case timeZero:
		return time.Time{}
	case timeSet:
		sec := d.Svarint()
		nsec := d.Uvarint()
		if nsec >= 1e9 {
			d.Fail("nanoseconds out of range")
			return time.Time{}
		}
		if d.Reason() != "" {
			return time.Time{}
		}
		return time.Unix(sec, int64(nsec))
	default:
		d.Fail("bad time flag")
		return time.Time{}
	}
}

// decodeV2Payload decodes one checksummed payload into rec. The CRC has
// already been verified by the Reader, so any failure here means the
// encoder and decoder disagree — it is still reported as corruption
// rather than trusted partially.
func decodeV2Payload(b []byte, rec *Record) error {
	d := frame.NewDecoder(b)
	switch d.Byte() {
	case 'u':
		rec.Op = OpUpsert
	case 't':
		rec.Op = OpTouch
	case 'd':
		rec.Op = OpDelete
	default:
		d.Fail("unknown op")
	}
	rec.E = d.Svarint()
	switch rec.Op {
	case OpUpsert:
		rec.Pattern = decodePattern(&d)
	case OpTouch:
		rec.ID = d.Str()
		rec.N = d.Svarint()
		rec.When = decodeTime(&d)
		rec.Example = d.Str()
	case OpDelete:
		rec.ID = d.Str()
	}
	if d.Reason() == "" && d.Len() != 0 {
		d.Fail("trailing payload bytes")
	}
	if r := d.Reason(); r != "" {
		return errors.New("codec: " + r)
	}
	return nil
}

func decodePattern(d *frame.Decoder) *patterns.Pattern {
	switch d.Byte() {
	case 0:
		return nil
	case 1:
	default:
		d.Fail("bad pattern presence byte")
		return nil
	}
	p := &patterns.Pattern{}
	p.ID = d.Str()
	p.Service = d.Str()
	p.Count = d.Svarint()
	p.FirstSeen = decodeTime(d)
	p.LastMatched = decodeTime(d)
	flags := d.Byte()
	p.Multiline = flags&patMultiline != 0
	nelem := d.Uvarint()
	if nelem > uint64(d.Len()) {
		// Every element costs at least five payload bytes; a count past
		// the remaining length is garbage and must not size a make().
		d.Fail("element count exceeds payload")
		return nil
	}
	if d.Reason() != "" {
		return nil
	}
	if nelem > 0 {
		p.Elements = make([]patterns.Element, 0, nelem)
	}
	for range nelem {
		var e patterns.Element
		e.Type = token.Type(d.Byte())
		ef := d.Byte()
		e.Var = ef&elemVar != 0
		e.SpaceBefore = ef&elemSpaceBefore != 0
		e.Value = d.Str()
		e.Name = d.Str()
		e.Key = d.Str()
		if d.Reason() != "" {
			return nil
		}
		p.Elements = append(p.Elements, e)
	}
	nex := d.Uvarint()
	if nex > uint64(d.Len()) {
		d.Fail("example count exceeds payload")
		return nil
	}
	if d.Reason() != "" {
		return nil
	}
	if nex > 0 {
		p.Examples = make([]string, 0, nex)
	}
	for range nex {
		s := d.Str()
		if d.Reason() != "" {
			return nil
		}
		p.Examples = append(p.Examples, s)
	}
	return p
}

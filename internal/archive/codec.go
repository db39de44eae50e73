package archive

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/frame"
)

// The archive block format. A sealed block is one internal/frame frame
// with the marker 0x00. Segments (segment.go) hold block frames back to
// back; block files of the earlier format hold exactly one.
//
// The payload is columnar. Everything a query needs for pruning —
// service, time bounds, the pattern dictionary — comes before the
// compressed section, so a block can be rejected without inflating it:
//
//	byte     format version (2)
//	string   service
//	svarint  bucket start (unix seconds)
//	uvarint  record count N
//	svarint  minimum timestamp (unix nanoseconds)
//	svarint  maximum timestamp (unix nanoseconds)
//	uvarint  pattern dictionary size D, then D pattern IDs, each a
//	         uvarint k and then, for k = 0, the 20 bytes a 40-digit
//	         lowercase hex ID (a SHA-1, patterns.HashID) spells, or for
//	         k > 0, the k-1 bytes of any other ID
//	uvarint  timestamp column length
//	uvarint  pattern column length
//	uvarint  variable column length
//	uvarint  compressed length, then that many bytes: DEFLATE of the
//	         three columns back to back —
//	         timestamp column: N svarint deltas, each from the previous
//	           record's timestamp (the first from the bucket start, in
//	           nanoseconds);
//	         pattern column: N uvarint dictionary indexes;
//	         variable column: per record a uvarint value count followed
//	           by that many (uvarint length + bytes) values
//
// with string encoded as frame.AppendString writes it. Version 1, which
// block files of the earlier format carry, differs in two places: each
// dictionary ID is a plain string, and the timestamp and pattern
// columns are stored raw, each after its length, ahead of the raw
// variable column length and the DEFLATE of the variable column alone.
// Both versions decode.
//
// A decoder failure of any kind — short frame, CRC mismatch, bad
// varint, an index past the dictionary, trailing bytes — is reported as
// a *CorruptError, never as a partial decode.

// blockMarker opens every block frame.
const blockMarker = 0x00

// blockVersion is the payload format version the encoder writes;
// blockVersion1 is the earlier one, still decoded.
const (
	blockVersion  = 2
	blockVersion1 = 1
)

// deflateLevel is the compression level of the column section. Every
// block resets the compressor, and at levels 2 to 9 a reset clears
// 640 KiB of match tables, which dominates a block of a few hundred
// bytes: on a 900-byte column section level 3 takes three quarters of
// the default level's time for 2 % more bytes, and level 1 (no tables)
// takes 40 % of it for 7 % more.
const deflateLevel = 3

// hexIDLen is the length of a pattern ID the dictionary stores as raw
// bytes: a SHA-1 in lowercase hex.
const hexIDLen = 40

// CorruptError reports a segment (or a block in it) that cannot be
// decoded. Queries serve nothing from such a segment (only external
// damage produces one, and it must never be served); pdbtool surfaces
// it to the operator.
type CorruptError struct {
	File   string // file name, when known
	Reason string
}

func (e *CorruptError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("archive: corrupt segment: %s", e.Reason)
	}
	return fmt.Sprintf("archive: corrupt segment %s: %s", e.File, e.Reason)
}

func corrupt(reason string) error { return &CorruptError{Reason: reason} }

// split checks that data is exactly one frame opened by marker and
// returns its payload.
func split(data []byte, marker byte) ([]byte, error) {
	payload, err := frame.Split(data, marker)
	if err != nil {
		return nil, corrupt(err.Error())
	}
	return payload, nil
}

// decodeErr reports d's first failure, if any, as a *CorruptError.
func decodeErr(d *frame.Decoder) error {
	if r := d.Reason(); r != "" {
		return corrupt(r)
	}
	return nil
}

// blockData is one decoded block. Decoded blocks are immutable and
// shared through the block cache.
type blockData struct {
	blockHeader
	ts     []int64 // absolute timestamp per record, unix nanoseconds
	pat    []uint32
	vars   []byte // inflated variable column
	varOff []int  // per-record offset into vars (len count+1)
}

// blockEncoder holds the reusable buffers for sealing blocks. The
// segment writer owns one and uses it under the archive's flush lock.
type blockEncoder struct {
	comp bytes.Buffer
	fw   *flate.Writer
}

// appendBlock appends b's frame to dst and returns the extended slice.
// On error dst is returned at its original length.
func (e *blockEncoder) appendBlock(dst []byte, b *memBlock) ([]byte, error) {
	e.comp.Reset()
	if e.fw == nil {
		// flate.NewWriter only errors on an invalid level.
		e.fw, _ = flate.NewWriter(&e.comp, deflateLevel)
	} else {
		e.fw.Reset(&e.comp)
	}
	for _, col := range [...][]byte{b.ts, b.pat, b.vars} {
		if _, err := e.fw.Write(col); err != nil {
			return dst, fmt.Errorf("archive: compress columns: %w", err)
		}
	}
	if err := e.fw.Close(); err != nil {
		return dst, fmt.Errorf("archive: compress columns: %w", err)
	}

	start := len(dst)
	buf := frame.Begin(dst)
	buf = append(buf, blockVersion)
	buf = frame.AppendString(buf, b.service)
	buf = binary.AppendVarint(buf, b.bucket)
	buf = binary.AppendUvarint(buf, uint64(b.count))
	buf = binary.AppendVarint(buf, b.minTS)
	buf = binary.AppendVarint(buf, b.maxTS)
	buf = binary.AppendUvarint(buf, uint64(len(b.pats)))
	for _, id := range b.pats {
		buf = appendPatternID(buf, id)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.ts)))
	buf = binary.AppendUvarint(buf, uint64(len(b.pat)))
	buf = binary.AppendUvarint(buf, uint64(len(b.vars)))
	buf = binary.AppendUvarint(buf, uint64(e.comp.Len()))
	buf = append(buf, e.comp.Bytes()...)
	buf, err := frame.End(buf, start, blockMarker)
	if err != nil {
		return buf, fmt.Errorf("archive: seal block: %w", err)
	}
	return buf, nil
}

// appendPatternID appends one dictionary entry: a hex SHA-1 ID as its
// 20 bytes, any other ID verbatim.
func appendPatternID(buf []byte, id string) []byte {
	if !isHexID(id) {
		buf = binary.AppendUvarint(buf, uint64(len(id))+1)
		return append(buf, id...)
	}
	buf = append(buf, 0)
	for i := 0; i < hexIDLen; i += 2 {
		buf = append(buf, unhex(id[i])<<4|unhex(id[i+1]))
	}
	return buf
}

// isHexID reports whether id is 40 lowercase hex digits.
func isHexID(id string) bool {
	if len(id) != hexIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

// blockHeader is the prune-relevant prefix of a block payload: all the
// metadata a query needs to reject a block without inflating it.
type blockHeader struct {
	version byte
	service string
	bucket  int64
	count   int
	minTS   int64
	maxTS   int64
	pats    []string
}

// parseHeader walks the header portion of a payload. On return d is
// positioned just past the pattern dictionary.
func parseHeader(d *frame.Decoder) (blockHeader, error) {
	var h blockHeader
	h.version = d.Byte()
	if d.Reason() == "" && h.version != blockVersion && h.version != blockVersion1 {
		d.Fail("unknown block version")
	}
	h.service = d.Str()
	h.bucket = d.Svarint()
	count := d.Uvarint()
	h.minTS = d.Svarint()
	h.maxTS = d.Svarint()
	npat := d.Uvarint()
	if npat > uint64(d.Len()) {
		// Every dictionary entry costs at least one payload byte; a count
		// past the remaining length is garbage and must not size a make().
		d.Fail("pattern count exceeds payload")
	}
	if h.version == blockVersion1 && count > uint64(d.Len()) {
		// Every record costs at least one raw byte in each column.
		d.Fail("record count exceeds payload")
	}
	if count > frame.MaxPayload {
		// Every record costs at least one byte in each inflated column.
		d.Fail("record count exceeds limit")
	}
	if err := decodeErr(d); err != nil {
		return h, err
	}
	h.count = int(count)
	h.pats = make([]string, 0, npat)
	for range npat {
		s := patternID(d, h.version)
		if err := decodeErr(d); err != nil {
			return h, err
		}
		h.pats = append(h.pats, s)
	}
	return h, nil
}

// patternID reads one dictionary entry of the given payload version.
func patternID(d *frame.Decoder, version byte) string {
	if version == blockVersion1 {
		return d.Str()
	}
	if k := d.Uvarint(); k > 0 {
		return string(d.Take(k - 1))
	}
	raw := d.Take(hexIDLen / 2)
	if raw == nil {
		return ""
	}
	const digits = "0123456789abcdef"
	var id [hexIDLen]byte
	for i, c := range raw {
		id[2*i], id[2*i+1] = digits[c>>4], digits[c&0x0f]
	}
	return string(id[:])
}

// decodeHeader verifies the frame checksum and decodes only the header
// metadata, leaving the compressed section untouched.
func decodeHeader(data []byte) (blockHeader, error) {
	payload, err := split(data, blockMarker)
	if err != nil {
		return blockHeader{}, err
	}
	d := frame.NewDecoder(payload)
	return parseHeader(&d)
}

// decodeBlock decodes one complete block frame. Any failure is a
// *CorruptError; the returned block is fully validated — iteration
// cannot fail afterwards.
func decodeBlock(data []byte) (*blockData, error) {
	payload, err := split(data, blockMarker)
	if err != nil {
		return nil, err
	}
	d := frame.NewDecoder(payload)
	h, err := parseHeader(&d)
	if err != nil {
		return nil, err
	}
	b := &blockData{blockHeader: h}
	// rawLen is the inflated length: the variable column in version 1,
	// all three columns in version 2.
	var tsCol, patCol []byte
	var tsLen, patLen, rawLen uint64
	if h.version == blockVersion1 {
		tsCol, patCol = d.Bytes(), d.Bytes()
		if rawLen = d.Uvarint(); rawLen > frame.MaxPayload {
			d.Fail("variable column length exceeds limit")
		}
	} else {
		tsLen, patLen, rawLen = d.Uvarint(), d.Uvarint(), d.Uvarint()
		if tsLen > frame.MaxPayload || patLen > frame.MaxPayload || rawLen > frame.MaxPayload || tsLen+patLen+rawLen > frame.MaxPayload {
			d.Fail("column length exceeds limit")
		}
		rawLen += tsLen + patLen
	}
	comp := d.Bytes()
	if d.Reason() == "" && d.Len() != 0 {
		d.Fail("trailing payload bytes")
	}
	if err := decodeErr(&d); err != nil {
		return nil, err
	}
	raw, err := inflate(comp, int(rawLen))
	if err != nil {
		return nil, err
	}
	if h.version == blockVersion1 {
		b.vars = raw
	} else {
		tsCol, patCol, b.vars = raw[:tsLen], raw[tsLen:tsLen+patLen], raw[tsLen+patLen:]
	}
	if b.count > len(tsCol) || b.count > len(patCol) {
		// Every record costs at least one byte in each column.
		return nil, corrupt("record count exceeds columns")
	}

	// Timestamp column: running-sum the deltas.
	b.ts = make([]int64, 0, b.count)
	ts := b.bucket * int64(1e9)
	for i := 0; i < b.count; i++ {
		delta, n := binary.Varint(tsCol)
		if n <= 0 {
			return nil, corrupt("bad timestamp delta")
		}
		tsCol = tsCol[n:]
		ts += delta
		b.ts = append(b.ts, ts)
	}
	if len(tsCol) != 0 {
		return nil, corrupt("trailing timestamp column bytes")
	}

	// Pattern column: dictionary indexes.
	b.pat = make([]uint32, 0, b.count)
	for i := 0; i < b.count; i++ {
		idx, n := binary.Uvarint(patCol)
		if n <= 0 {
			return nil, corrupt("bad pattern index")
		}
		if idx >= uint64(len(b.pats)) {
			return nil, corrupt("pattern index past dictionary")
		}
		patCol = patCol[n:]
		b.pat = append(b.pat, uint32(idx))
	}
	if len(patCol) != 0 {
		return nil, corrupt("trailing pattern column bytes")
	}

	// Variable column: walk once to validate and index.
	b.varOff = make([]int, 0, b.count+1)
	vd := frame.NewDecoder(b.vars)
	for i := 0; i < b.count; i++ {
		b.varOff = append(b.varOff, len(b.vars)-vd.Len())
		nv := vd.Uvarint()
		if nv > uint64(vd.Len()) {
			vd.Fail("variable count exceeds column")
		}
		for j := uint64(0); j < nv && vd.Reason() == ""; j++ {
			vd.Bytes()
		}
		if err := decodeErr(&vd); err != nil {
			return nil, err
		}
	}
	if vd.Len() != 0 {
		return nil, corrupt("trailing variable column bytes")
	}
	b.varOff = append(b.varOff, len(b.vars))
	return b, nil
}

// inflate decompresses comp, which must inflate to exactly n bytes.
func inflate(comp []byte, n int) ([]byte, error) {
	out := make([]byte, n)
	fr := flate.NewReader(bytes.NewReader(comp))
	defer fr.Close()
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, corrupt("column inflate: " + err.Error())
	}
	if n, _ := fr.Read(make([]byte, 1)); n != 0 {
		return nil, corrupt("inflated columns longer than declared")
	}
	return out, nil
}

// varsAt appends record i's variable values (views into the block's
// inflated column) to dst. The block was validated at decode time, so
// the walk cannot fail.
func (b *blockData) varsAt(i int, dst [][]byte) [][]byte {
	d := frame.NewDecoder(b.vars[b.varOff[i]:])
	nv := d.Uvarint()
	for j := uint64(0); j < nv; j++ {
		dst = append(dst, d.Bytes())
	}
	return dst
}

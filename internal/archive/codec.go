package archive

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The archive block format. A sealed block is one self-delimiting
// frame, following the journal codec's framing conventions
// (internal/store/codec):
//
//	0x00                     frame marker
//	uvarint                  payload length
//	4 bytes, little-endian   CRC-32C (Castagnoli) of the payload
//	payload
//
// Segments (segment.go) hold block frames back to back; block files of
// the earlier format hold exactly one.
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
// with string encoded as uvarint length + raw bytes, exactly as in the
// journal codec. Version 1, which block files of the earlier format
// carry, differs in two places: each dictionary ID is a plain string,
// and the timestamp and pattern columns are stored raw, each after its
// length, ahead of the raw variable column length and the DEFLATE of
// the variable column alone. Both versions decode.
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

// maxBlockPayload bounds a frame payload (64 MiB), mirroring the
// journal codec's cap: a corrupt length prefix must not size a
// multi-gigabyte read.
const maxBlockPayload = 1 << 26

// castagnoli is the CRC-32C table used by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxBlockHeader is the worst-case frame header size: marker, uvarint
// payload length, CRC.
const maxBlockHeader = 1 + binary.MaxVarintLen64 + 4

// zeroBlockHeader reserves header space in the encode buffer without
// allocating.
var zeroBlockHeader [maxBlockHeader]byte

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
	buf := append(dst, zeroBlockHeader[:]...)
	buf = append(buf, blockVersion)
	buf = appendString(buf, b.service)
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
	if len(buf)-start-maxBlockHeader > maxBlockPayload {
		return buf[:start], fmt.Errorf("archive: block payload %d bytes exceeds limit", len(buf)-start-maxBlockHeader)
	}
	return closeFrame(buf, start, blockMarker), nil
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

// closeFrame finishes the frame that starts at buf[start]: its payload
// was written after maxBlockHeader reserved bytes, which are replaced
// by the real header (marker, uvarint length, CRC) with the payload
// shifted down over the unused remainder.
func closeFrame(buf []byte, start int, marker byte) []byte {
	payload := buf[start+maxBlockHeader:]
	var hdr [maxBlockHeader]byte
	hdr[0] = marker
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(payload, castagnoli))
	n += 4
	copy(buf[start:], hdr[:n])
	if n < maxBlockHeader {
		copy(buf[start+n:], payload)
		buf = buf[:start+n+len(payload)]
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// blockDecoder walks a checksummed payload. The first failure sticks.
type blockDecoder struct {
	b   []byte
	i   int
	err error
}

func (d *blockDecoder) fail(reason string) {
	if d.err == nil {
		d.err = corrupt(reason)
	}
}

func (d *blockDecoder) byte() byte {
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

func (d *blockDecoder) uvarint() uint64 {
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

func (d *blockDecoder) svarint() int64 {
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

func (d *blockDecoder) str() string {
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

func (d *blockDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.i) {
		d.fail("column length exceeds payload")
		return nil
	}
	b := d.b[d.i : d.i+int(n)]
	d.i += int(n)
	return b
}

// frameOf splits data, which must be exactly one frame opened by
// marker, into its checksummed payload.
func frameOf(data []byte, marker byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, corrupt("empty file")
	}
	if data[0] != marker {
		return nil, corrupt("bad frame marker")
	}
	plen, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return nil, corrupt("bad payload length")
	}
	if plen > maxBlockPayload {
		return nil, corrupt("payload length exceeds limit")
	}
	rest := data[1+n:]
	if len(rest) < 4 {
		return nil, corrupt("frame truncated before checksum")
	}
	sum := binary.LittleEndian.Uint32(rest)
	payload := rest[4:]
	if uint64(len(payload)) < plen {
		return nil, corrupt("frame truncated")
	}
	if uint64(len(payload)) > plen {
		return nil, corrupt("trailing bytes after frame")
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, corrupt("checksum mismatch")
	}
	return payload, nil
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
func parseHeader(d *blockDecoder) (blockHeader, error) {
	var h blockHeader
	h.version = d.byte()
	if d.err == nil && h.version != blockVersion && h.version != blockVersion1 {
		d.fail("unknown block version")
	}
	h.service = d.str()
	h.bucket = d.svarint()
	count := d.uvarint()
	h.minTS = d.svarint()
	h.maxTS = d.svarint()
	npat := d.uvarint()
	if npat > uint64(len(d.b)-d.i) {
		// Every dictionary entry costs at least one payload byte; a count
		// past the remaining length is garbage and must not size a make().
		d.fail("pattern count exceeds payload")
	}
	if h.version == blockVersion1 && count > uint64(len(d.b)-d.i) {
		// Every record costs at least one raw byte in each column.
		d.fail("record count exceeds payload")
	}
	if count > maxBlockPayload {
		// Every record costs at least one byte in each inflated column.
		d.fail("record count exceeds limit")
	}
	if d.err != nil {
		return h, d.err
	}
	h.count = int(count)
	h.pats = make([]string, 0, npat)
	for range npat {
		s := d.patternID(h.version)
		if d.err != nil {
			return h, d.err
		}
		h.pats = append(h.pats, s)
	}
	return h, nil
}

// patternID reads one dictionary entry of the given payload version.
func (d *blockDecoder) patternID(version byte) string {
	if version == blockVersion1 {
		return d.str()
	}
	k := d.uvarint()
	if d.err != nil {
		return ""
	}
	if k > 0 {
		if k-1 > uint64(len(d.b)-d.i) {
			d.fail("pattern ID length exceeds payload")
			return ""
		}
		s := string(d.b[d.i : d.i+int(k-1)])
		d.i += int(k - 1)
		return s
	}
	if hexIDLen/2 > len(d.b)-d.i {
		d.fail("pattern ID length exceeds payload")
		return ""
	}
	const digits = "0123456789abcdef"
	var id [hexIDLen]byte
	for i, c := range d.b[d.i : d.i+hexIDLen/2] {
		id[2*i], id[2*i+1] = digits[c>>4], digits[c&0x0f]
	}
	d.i += hexIDLen / 2
	return string(id[:])
}

// decodeHeader verifies the frame checksum and decodes only the header
// metadata, leaving the compressed section untouched.
func decodeHeader(data []byte) (blockHeader, error) {
	payload, err := frameOf(data, blockMarker)
	if err != nil {
		return blockHeader{}, err
	}
	return parseHeader(&blockDecoder{b: payload})
}

// decodeBlock decodes one complete block frame. Any failure is a
// *CorruptError; the returned block is fully validated — iteration
// cannot fail afterwards.
func decodeBlock(data []byte) (*blockData, error) {
	payload, err := frameOf(data, blockMarker)
	if err != nil {
		return nil, err
	}
	d := &blockDecoder{b: payload}
	h, err := parseHeader(d)
	if err != nil {
		return nil, err
	}
	b := &blockData{blockHeader: h}
	var tsCol, patCol []byte
	if h.version == blockVersion1 {
		tsCol = d.bytes()
		patCol = d.bytes()
		rawLen := d.uvarint()
		if rawLen > maxBlockPayload {
			d.fail("variable column length exceeds limit")
		}
		comp := d.bytes()
		if d.err == nil {
			b.vars, d.err = inflate(comp, int(rawLen))
		}
	} else {
		tsLen, patLen, varLen := d.uvarint(), d.uvarint(), d.uvarint()
		if tsLen > maxBlockPayload || patLen > maxBlockPayload || varLen > maxBlockPayload || tsLen+patLen+varLen > maxBlockPayload {
			d.fail("column length exceeds limit")
		}
		comp := d.bytes()
		var raw []byte
		if d.err == nil {
			raw, d.err = inflate(comp, int(tsLen+patLen+varLen))
		}
		if d.err == nil {
			tsCol, patCol, b.vars = raw[:tsLen], raw[tsLen:tsLen+patLen], raw[tsLen+patLen:]
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.i != len(d.b) {
		return nil, corrupt("trailing payload bytes")
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
	vd := &blockDecoder{b: b.vars}
	for i := 0; i < b.count; i++ {
		b.varOff = append(b.varOff, vd.i)
		nv := vd.uvarint()
		if nv > uint64(len(vd.b)-vd.i) {
			vd.fail("variable count exceeds column")
		}
		for j := uint64(0); j < nv && vd.err == nil; j++ {
			vd.bytes()
		}
		if vd.err != nil {
			return nil, vd.err
		}
	}
	if vd.i != len(vd.b) {
		return nil, corrupt("trailing variable column bytes")
	}
	b.varOff = append(b.varOff, vd.i)
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
	d := &blockDecoder{b: b.vars, i: b.varOff[i]}
	nv := d.uvarint()
	for j := uint64(0); j < nv; j++ {
		dst = append(dst, d.bytes())
	}
	return dst
}

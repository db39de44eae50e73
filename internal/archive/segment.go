package archive

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// The segment format. One flush writes one segment per time bucket it
// touches: the block frames of every block it sealed in that bucket,
// back to back, then a footer frame indexing them, then the footer
// frame's length:
//
//	block frame 0 … block frame N-1     (codec.go's block frames)
//	footer frame                        an internal/frame frame, marker 0x01
//	4 bytes, little-endian              footer frame length
//
// The footer payload is
//
//	byte     format version (1)
//	svarint  bucket start (unix seconds)
//	uvarint  block count N (at least 1)
//	N times:
//	  string   service
//	  uvarint  record count
//	  uvarint  minimum timestamp − bucket start (nanoseconds)
//	  uvarint  maximum timestamp − minimum timestamp (nanoseconds)
//	  uvarint  offset of the block frame in the file
//	  uvarint  length of the block frame
//
// The block ranges must tile the file from offset 0 up to the footer
// frame, in order, with no gap and no overlap, and every block frame's
// header must agree with its footer entry. A segment that breaks any of
// these rules is corrupt as a whole.
//
// Segments are named s-<bucket>-<seq>.seg. Block files of the earlier
// format, b-<bucket>-<seq>.blk, hold exactly one block frame and no
// footer; the archive reads them as single-block segments. Both kinds
// draw their seq from one counter, so ascending seq is publication
// order.

// footerMarker opens the footer frame.
const footerMarker = 0x01

// footerVersion is the current footer payload format version.
const footerVersion = 1

// segTrailer is the size of the footer-length trailer.
const segTrailer = 4

// footerEntry indexes one block of a segment.
type footerEntry struct {
	service      string
	count        int
	minTS, maxTS int64 // unix nanoseconds
	off, len     int64 // byte range of the block frame in the file
}

// segFooter is a segment's decoded footer. Footers are immutable and
// shared through the block cache.
type segFooter struct {
	bucket int64
	blocks []footerEntry
}

// segName renders a segment file name.
func segName(bucket, seq int64) string {
	return fmt.Sprintf("s-%d-%08d.seg", bucket, seq)
}

// parseSegName parses a segment name or a block file name of the
// earlier format. legacy reports the latter. The bucket may be
// negative, so the name is split on the last dash.
func parseSegName(name string) (bucket, seq int64, legacy, ok bool) {
	var s string
	switch {
	case strings.HasPrefix(name, "s-") && strings.HasSuffix(name, ".seg"):
		s = name[2 : len(name)-4]
	case strings.HasPrefix(name, "b-") && strings.HasSuffix(name, ".blk"):
		s, legacy = name[2:len(name)-4], true
	default:
		return 0, 0, false, false
	}
	i := strings.LastIndexByte(s, '-')
	if i <= 0 {
		return 0, 0, false, false
	}
	bucket, err := strconv.ParseInt(s[:i], 10, 64)
	if err != nil {
		return 0, 0, false, false
	}
	seq, err = strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil || seq < 0 {
		return 0, 0, false, false
	}
	return bucket, seq, legacy, true
}

// appendFooter appends the footer frame and the trailer for blocks,
// which must tile buf[:len(buf)] from offset 0. On error buf is returned
// at its original length.
func appendFooter(buf []byte, bucket int64, blocks []footerEntry) ([]byte, error) {
	start := len(buf)
	buf = frame.Begin(buf)
	buf = append(buf, footerVersion)
	buf = binary.AppendVarint(buf, bucket)
	buf = binary.AppendUvarint(buf, uint64(len(blocks)))
	base := bucket * int64(1e9)
	for _, e := range blocks {
		buf = frame.AppendString(buf, e.service)
		buf = binary.AppendUvarint(buf, uint64(e.count))
		buf = binary.AppendUvarint(buf, uint64(e.minTS-base))
		buf = binary.AppendUvarint(buf, uint64(e.maxTS-e.minTS))
		buf = binary.AppendUvarint(buf, uint64(e.off))
		buf = binary.AppendUvarint(buf, uint64(e.len))
	}
	buf, err := frame.End(buf, start, footerMarker)
	if err != nil {
		return buf, fmt.Errorf("archive: seal segment footer: %w", err)
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(len(buf)-start)), nil
}

// footerBounds reads a segment's trailer: the footer frame occupies
// [start, size-segTrailer).
func footerBounds(trailer []byte, size int64) (start int64, err error) {
	if size < segTrailer {
		return 0, corrupt("segment shorter than its trailer")
	}
	flen := int64(binary.LittleEndian.Uint32(trailer))
	if flen > size-segTrailer {
		return 0, corrupt("footer length past start of file")
	}
	return size - segTrailer - flen, nil
}

// parseFooter decodes the footer frame, which starts at byte offset
// start of the segment, and checks that its block ranges tile
// [0, start) exactly.
func parseFooter(data []byte, start int64) (*segFooter, error) {
	payload, err := split(data, footerMarker)
	if err != nil {
		return nil, err
	}
	d := frame.NewDecoder(payload)
	if v := d.Byte(); d.Reason() == "" && v != footerVersion {
		d.Fail("unknown footer version")
	}
	f := &segFooter{bucket: d.Svarint()}
	n := d.Uvarint()
	if d.Reason() == "" && n == 0 {
		d.Fail("segment holds no blocks")
	}
	if n > uint64(d.Len()) {
		// Every entry costs several payload bytes; a count past the
		// remaining length is garbage and must not size a make().
		d.Fail("block count exceeds footer")
	}
	if err := decodeErr(&d); err != nil {
		return nil, err
	}
	base := f.bucket * int64(1e9)
	f.blocks = make([]footerEntry, 0, n)
	var next int64
	for range n {
		e := footerEntry{service: d.Str(), count: int(d.Uvarint())}
		e.minTS = base + int64(d.Uvarint())
		e.maxTS = e.minTS + int64(d.Uvarint())
		off, length := d.Uvarint(), d.Uvarint()
		if err := decodeErr(&d); err != nil {
			return nil, err
		}
		if off != uint64(next) {
			return nil, corrupt("block range does not follow the previous one")
		}
		if length == 0 || length > uint64(start-next) {
			return nil, corrupt("block range past the footer")
		}
		e.off, e.len = int64(off), int64(length)
		next += e.len
		f.blocks = append(f.blocks, e)
	}
	if d.Len() != 0 {
		return nil, corrupt("trailing footer bytes")
	}
	if next != start {
		return nil, corrupt("block ranges do not reach the footer")
	}
	return f, nil
}

// check verifies that a block frame's header agrees with the footer
// entry that indexes it.
func (e *footerEntry) check(bucket int64, h blockHeader) error {
	if h.service != e.service || h.bucket != bucket || h.count != e.count || h.minTS != e.minTS || h.maxTS != e.maxTS {
		return corrupt("block header disagrees with the segment footer")
	}
	return nil
}

// legacyFooter indexes a block file of the earlier format as a
// single-block segment.
func legacyFooter(h blockHeader, size int64) *segFooter {
	return &segFooter{bucket: h.bucket, blocks: []footerEntry{{
		service: h.service, count: h.count, minTS: h.minTS, maxTS: h.maxTS, len: size,
	}}}
}

// decodeSegment decodes a whole segment file: the footer, then every
// block fully, each checked against its footer entry. legacy selects
// the earlier single-block format. Any failure is a *CorruptError and
// no block is returned: a segment is valid whole or not at all.
func decodeSegment(data []byte, legacy bool) (*segFooter, []*blockData, error) {
	if legacy {
		b, err := decodeBlock(data)
		if err != nil {
			return nil, nil, err
		}
		return legacyFooter(b.blockHeader, int64(len(data))), []*blockData{b}, nil
	}
	size := int64(len(data))
	if size < segTrailer {
		return nil, nil, corrupt("segment shorter than its trailer")
	}
	start, err := footerBounds(data[size-segTrailer:], size)
	if err != nil {
		return nil, nil, err
	}
	f, err := parseFooter(data[start:size-segTrailer], start)
	if err != nil {
		return nil, nil, err
	}
	blocks := make([]*blockData, len(f.blocks))
	for i := range f.blocks {
		e := &f.blocks[i]
		if blocks[i], err = decodeBlock(data[e.off : e.off+e.len]); err != nil {
			return nil, nil, err
		}
		if err := e.check(f.bucket, blocks[i].blockHeader); err != nil {
			return nil, nil, err
		}
	}
	return f, blocks, nil
}

// readFooter reads and validates a segment's footer through an open
// file: the trailer, then the footer frame — never the blocks.
func readFooter(f vfs.File) (*segFooter, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if size < segTrailer {
		return nil, corrupt("segment shorter than its trailer")
	}
	var trailer [segTrailer]byte
	if err := readAt(f, trailer[:], size-segTrailer); err != nil {
		return nil, err
	}
	start, err := footerBounds(trailer[:], size)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size-segTrailer-start)
	if err := readAt(f, buf, start); err != nil {
		return nil, err
	}
	return parseFooter(buf, start)
}

// readAt fills p from byte offset off of f.
func readAt(f vfs.File, p []byte, off int64) error {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	_, err := io.ReadFull(f, p)
	return err
}

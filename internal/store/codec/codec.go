// Package codec is the store's record-codec layer: it owns the wire
// encoding of every byte the pattern database writes to disk.
//
// The store writes one journal format, v2: CRC32-framed, length-prefixed
// binary records with varint integers and unix-time encodings, appended
// into a caller-owned buffer without allocating (AppendRecord).
//
// Reader also replays v1, the original line-oriented JSON format (one
// object per newline-terminated line) that databases written before v2
// still hold. The two are distinguishable per record: a v1 record begins
// with '{' and a v2 frame with the 0x00 marker byte (which can never
// open a JSON value), so a single Reader replays any journal file —
// pure v1, pure v2, or a file that switches format partway through —
// without being told what wrote it.
//
// Decoding follows the store's torn-tail contract: a journal may end
// mid-record after a crash, so Reader.Next reports any damage as a
// *CorruptError and the caller keeps every whole record decoded before
// it. Replay never errors on a tear.
//
// The snapshot (patterns.json) stays human-readable JSON;
// EncodeSnapshot/DecodeSnapshot are the only place those bytes are
// produced and parsed. The seqlint journalcodec analyzer enforces that
// no package outside this one marshals or unmarshals the Record and
// Snapshot types directly.
package codec

import (
	"fmt"
	"time"

	"repro/internal/patterns"
)

// Format names the encoding of a decoded record; Reader.Next returns it
// so diagnostic tools can label each record.
type Format string

const (
	// FormatV1 is the legacy line-oriented JSON journal format (read only).
	FormatV1 Format = "v1"
	// FormatV2 is the length-prefixed, CRC-framed binary journal format.
	FormatV2 Format = "v2"
)

// Record is one journal entry. The JSON tags are the v1 wire format,
// unchanged from the original single-journal layout, which is what
// keeps journals written by every prior release replayable.
type Record struct {
	Op      string            `json:"op"` // upsert | touch | delete
	Pattern *patterns.Pattern `json:"pattern,omitempty"`
	ID      string            `json:"id,omitempty"`
	N       int64             `json:"n,omitempty"`
	When    time.Time         `json:"when,omitempty"`
	Example string            `json:"example,omitempty"`
	// E is the compaction epoch the record was written under. Replay
	// skips records older than the snapshot's epoch: they were already
	// folded into it by a compaction that crashed before truncating the
	// journals. Zero (omitted) matches pre-epoch journals and snapshots.
	E int64 `json:"e,omitempty"`
}

// Record op names.
const (
	OpUpsert = "upsert"
	OpTouch  = "touch"
	OpDelete = "delete"
)

// CorruptError describes a damaged or torn record: where it starts and
// what was wrong with it. Replay treats it as the end of the journal
// (the tail tore mid-write); diagnostic tools print it.
type CorruptError struct {
	Off    int64  // byte offset of the damaged record
	Reason string // human-readable damage description
	Err    error  // underlying cause, if any
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("codec: corrupt record at offset %d: %s: %v", e.Off, e.Reason, e.Err)
	}
	return fmt.Sprintf("codec: corrupt record at offset %d: %s", e.Off, e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Err }

package archive

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// TestFlushWritesOneSegmentPerBucket checks the write path's shape and
// its instruments: a flush over three services and two buckets writes
// exactly two segment files, each decoding whole, and counts two
// segments, four blocks, the bytes written and one publish.
func TestFlushWritesOneSegmentPerBucket(t *testing.T) {
	fs := vfs.NewFault()
	m := obs.New()
	a, err := Open("archive", Options{FS: fs, Shards: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"cron", "nginx", "sshd"} {
		mustAppend(t, a, svc, "p", t0, "v")
	}
	mustAppend(t, a, "sshd", "p", t0.Add(time.Hour), "w")
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("archive")
	if err != nil {
		t.Fatal(err)
	}
	var stored int
	for _, name := range names {
		if !strings.HasPrefix(name, "s-") || !strings.HasSuffix(name, ".seg") {
			t.Fatalf("flush left %s beside its segments", name)
		}
		data, _ := fs.Content("archive/" + name)
		if _, _, err := decodeSegment(data, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stored += len(data)
	}
	s := m.Snapshot()
	if len(names) != 2 || s.ArchiveSegments != 2 || s.ArchiveBlocks != 4 || s.ArchiveBytesStored != int64(stored) || s.ArchiveFlushDuration.Count != 1 {
		t.Fatalf("%d files; segments %d, blocks %d, bytes %d (files hold %d), publishes %d; want 2 files, 2 segments, 4 blocks, 1 publish",
			len(names), s.ArchiveSegments, s.ArchiveBlocks, s.ArchiveBytesStored, stored, s.ArchiveFlushDuration.Count)
	}
	var exp bytes.Buffer
	if err := m.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.MetricArchiveSegments + " 2", obs.MetricArchiveFlushDuration + "_count 1"} {
		if !strings.Contains(exp.String(), name) {
			t.Fatalf("exposition lacks %q", name)
		}
	}
}

// TestParallelEncodeKeepsBlockOrder flushes enough blocks into one
// segment to split its encoding across workers, and checks the segment
// holds every block once, in seal order, with every record served.
func TestParallelEncodeKeepsBlockOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a, err := Open("archive", Options{FS: vfs.NewFault(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const services = 5 * minBlocksPerWorker
	want := 0
	for i := 0; i < services; i++ {
		// Skewed sizes, so the runs split by raw bytes, not by count.
		for j := 0; j <= i%7*i%13; j++ {
			mustAppend(t, a, fmt.Sprintf("svc%03d", i), "p", t0.Add(time.Duration(j)*time.Millisecond), strconv.Itoa(j))
			want++
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	blocks, err := a.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != services {
		t.Fatalf("segment lists %d blocks, want %d", len(blocks), services)
	}
	for i, b := range blocks {
		if b.Corrupt != "" || b.File != blocks[0].File || b.Service != fmt.Sprintf("svc%03d", i) {
			t.Fatalf("block %d: %+v", i, b)
		}
	}
	entries, err := a.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != want {
		t.Fatalf("served %d records, want %d", len(entries), want)
	}
}

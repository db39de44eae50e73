package archive

import (
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

var t0 = time.Date(2026, 3, 1, 10, 0, 0, 0, time.UTC)

func mustAppend(t *testing.T, a *Archive, svc, pat string, ts time.Time, vars ...string) {
	t.Helper()
	bs := make([][]byte, len(vars))
	for i, v := range vars {
		bs[i] = []byte(v)
	}
	if err := a.Append(svc, pat, ts, bs, 64); err != nil {
		t.Fatal(err)
	}
}

func TestParseSegName(t *testing.T) {
	cases := []struct {
		name   string
		bucket int64
		seq    int64
		legacy bool
		ok     bool
	}{
		{"s-3600-00000001.seg", 3600, 1, false, true},
		{"s-0-00000000.seg", 0, 0, false, true},
		{"s--7200-00000042.seg", -7200, 42, false, true}, // pre-epoch bucket
		{"s-3600-12345678901.seg", 3600, 12345678901, false, true},
		{"b-3600-00000001.blk", 3600, 1, true, true}, // the earlier block-file format
		{"b--7200-00000042.blk", -7200, 42, true, true},
		{"tmp-00000001.seg", 0, 0, false, false},
		{"tmp-00000001.blk", 0, 0, false, false},
		{"s-3600.seg", 0, 0, false, false},
		{"s-x-00000001.seg", 0, 0, false, false},
		{"s-3600-x.seg", 0, 0, false, false},
		{"s-3600-00000001.blk", 0, 0, false, false},
		{"b-3600-00000001.seg", 0, 0, false, false},
		{"journal-000.wal", 0, 0, false, false},
		{"", 0, 0, false, false},
	}
	for _, c := range cases {
		bucket, seq, legacy, ok := parseSegName(c.name)
		if ok != c.ok || bucket != c.bucket || seq != c.seq || legacy != c.legacy {
			t.Errorf("parseSegName(%q) = (%d, %d, %v, %v), want (%d, %d, %v, %v)",
				c.name, bucket, seq, legacy, ok, c.bucket, c.seq, c.legacy, c.ok)
		}
	}
	// Round trip through the renderer.
	for _, bucket := range []int64{0, 3600, -7200} {
		name := segName(bucket, 7)
		gb, gs, legacy, ok := parseSegName(name)
		if !ok || legacy || gb != bucket || gs != 7 {
			t.Errorf("parseSegName(segName(%d, 7)) = (%d, %d, %v, %v)", bucket, gb, gs, legacy, ok)
		}
	}
}

func TestBucketFor(t *testing.T) {
	a, err := Open("archive", Options{FS: vfs.NewFault(), BucketSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ns   int64
		want int64
	}{
		{0, 0},
		{1, 0},
		{3599 * int64(1e9), 0},
		{3600 * int64(1e9), 3600},
		{-1, -3600},                 // one nanosecond before the epoch
		{-3600 * int64(1e9), -3600}, // exactly one bucket before
		{-3601 * int64(1e9), -7200}, // just past it
		{7201 * int64(1e9), 7200},
	}
	for _, c := range cases {
		if got := a.bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestCorruptionTable damages a valid block file in targeted ways and
// checks each damage is rejected with a *CorruptError naming the right
// layer — never a panic, never a partial decode.
func TestCorruptionTable(t *testing.T) {
	valid := sealedBlock(t)
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := []struct {
		name   string
		data   []byte
		reason string // substring of the CorruptError reason
	}{
		{"empty", nil, "empty file"},
		{"bad marker", mutate(func(b []byte) []byte { b[0] = 0xff; return b }), "bad frame marker"},
		{"torn before checksum", valid[:2], "truncated"},
		{"torn payload", valid[:len(valid)-1], "frame truncated"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0x00), "trailing bytes after frame"},
		{"payload bit flip", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }), "checksum mismatch"},
		{"checksum bit flip", mutate(func(b []byte) []byte { b[3] ^= 0xff; return b }), "checksum mismatch"},
		{"huge declared length", []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x7f}, "exceeds limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := decodeBlock(c.data)
			if err == nil {
				t.Fatalf("decode accepted damaged block (%d records)", b.count)
			}
			ce, ok := err.(*CorruptError)
			if !ok {
				t.Fatalf("error is %T, want *CorruptError: %v", err, err)
			}
			if !strings.Contains(ce.Reason, c.reason) {
				t.Fatalf("reason %q does not mention %q", ce.Reason, c.reason)
			}
			if _, err := decodeHeader(c.data); err == nil && c.name != "payload bit flip" {
				// The header decoder shares the frame checks; a payload
				// mutation past the header may legitimately pass it.
				t.Fatalf("decodeHeader accepted damaged block")
			}
		})
	}
	if _, err := decodeBlock(valid); err != nil {
		t.Fatalf("control: valid block rejected: %v", err)
	}
}

// TestSeqResume reopens an archive over existing blocks and checks new
// flushes never collide with published files.
func TestSeqResume(t *testing.T) {
	fs := vfs.NewFault()
	a, err := Open("archive", Options{FS: fs, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, a, "sshd", "p-a", t0, "1")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2, err := Open("archive", Options{FS: fs, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, a2, "sshd", "p-a", t0, "2")
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	blocks, err := a2.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2 (a seq collision overwrote one)", len(blocks))
	}
	entries, err := a2.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("served %d records, want 2", len(entries))
	}
}

// TestCacheCounters checks the hit/miss accounting: the first read of a
// sealed block decodes it (miss), repeat queries are served from the
// LRU (hit), and evicted blocks decode again.
func TestCacheCounters(t *testing.T) {
	fs := vfs.NewFault()
	a, err := Open("archive", Options{FS: fs, Shards: 1, CacheBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two sealed blocks in different buckets of the same service.
	mustAppend(t, a, "sshd", "p-a", t0, "x")
	mustAppend(t, a, "sshd", "p-a", t0.Add(2*time.Hour), "y")
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	q1 := Query{From: t0, To: t0.Add(time.Hour)}                        // bucket 1 only
	q2 := Query{From: t0.Add(2 * time.Hour), To: t0.Add(3 * time.Hour)} // bucket 2 only

	read := func(q Query) {
		t.Helper()
		if entries, err := a.Query(q); err != nil || len(entries) != 1 {
			t.Fatalf("query %+v: %d entries, err %v", q, len(entries), err)
		}
	}
	read(q1)
	if h, m := a.m.ArchiveCacheHits.Value(), a.m.ArchiveCacheMisses.Value(); h != 0 || m != 1 {
		t.Fatalf("after cold read: hits %d misses %d, want 0/1", h, m)
	}
	read(q1)
	if h, m := a.m.ArchiveCacheHits.Value(), a.m.ArchiveCacheMisses.Value(); h != 1 || m != 1 {
		t.Fatalf("after warm read: hits %d misses %d, want 1/1", h, m)
	}
	// The single-slot cache evicts block 1 when block 2 is read; reading
	// block 1 again must decode again.
	read(q2)
	read(q1)
	if m := a.m.ArchiveCacheMisses.Value(); m != 3 {
		t.Fatalf("after eviction round trip: misses %d, want 3", m)
	}
}

// TestHeaderPruneSkipsDecode checks bucket and header pruning: a query
// outside a block's service or time range must answer without inflating
// the block (neither a cache hit nor a miss is counted for a
// name-pruned file; a header-pruned one counts neither too).
func TestHeaderPruneSkipsDecode(t *testing.T) {
	fs := vfs.NewFault()
	a, err := Open("archive", Options{FS: fs, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, a, "sshd", "p-a", t0, "x")
	mustAppend(t, a, "nginx", "p-b", t0, "y")
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	// Service prune: the sshd query must not decode the nginx block.
	if entries, err := a.Query(Query{Service: "sshd"}); err != nil || len(entries) != 1 {
		t.Fatalf("service query: %d entries, err %v", len(entries), err)
	}
	if m := a.m.ArchiveCacheMisses.Value(); m != 1 {
		t.Fatalf("service-pruned query decoded %d blocks, want 1", m)
	}
	// Name prune: a disjoint time range decodes nothing.
	if entries, err := a.Query(Query{From: t0.Add(24 * time.Hour)}); err != nil || len(entries) != 0 {
		t.Fatalf("out-of-range query: %d entries, err %v", len(entries), err)
	}
	if m := a.m.ArchiveCacheMisses.Value(); m != 1 {
		t.Fatalf("out-of-range query decoded blocks: %d misses total, want 1", m)
	}
}

// TestQuerySeesOpenBlocks checks the read path covers unsealed
// in-memory records, and that sealing does not change the answer.
func TestQuerySeesOpenBlocks(t *testing.T) {
	a, err := Open("archive", Options{FS: vfs.NewFault(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, a, "sshd", "p-a", t0, "v1", "v2")
	mustAppend(t, a, "nginx", "p-b", t0.Add(time.Second))
	check := func(stage string) {
		t.Helper()
		entries, err := a.Query(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Fatalf("%s: served %d records, want 2", stage, len(entries))
		}
		e := entries[0]
		if e.Service != "sshd" || e.PatternID != "p-a" || len(e.Vars) != 2 || e.Vars[0] != "v1" || e.Vars[1] != "v2" {
			t.Fatalf("%s: first entry wrong: %+v", stage, e)
		}
		if !e.Time.Equal(t0) {
			t.Fatalf("%s: first entry at %s, want %s", stage, e.Time, t0)
		}
		if vars, err := a.Query(Query{Vars: map[int]string{1: "v2"}}); err != nil || len(vars) != 1 {
			t.Fatalf("%s: var predicate served %d records, err %v", stage, len(vars), err)
		}
	}
	check("open")
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	check("sealed")
}

// TestQueryLimitIsPrefixOfFullQuery pins the limit pushdown: however the
// timestamps are spread over sealed and open blocks (in order, reversed,
// tied), a limited query returns exactly the first Limit entries of the
// unlimited one.
func TestQueryLimitIsPrefixOfFullQuery(t *testing.T) {
	a, err := Open("archive", Options{FS: vfs.NewFault(), Shards: 2, BucketSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	services := []string{"sshd", "nginx", "cron"}
	n := 0
	for wave := 0; wave < 6; wave++ {
		for i := 0; i < 40; i++ {
			// Waves run backwards in time; inside a wave every fourth
			// record shares a timestamp and the rest zigzag.
			ts := t0.Add(time.Duration(5-wave)*time.Minute + time.Duration((i*7)%40/4)*time.Second)
			mustAppend(t, a, services[i%3], "p-"+string(rune('a'+i%5)), ts, "v", string(rune('0'+n%10)))
			n++
		}
		if wave < 4 { // the last two waves stay in open blocks
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range []Query{{}, {Service: "nginx"}, {PatternID: "p-c"}, {From: t0.Add(2 * time.Minute), To: t0.Add(5 * time.Minute)}, {Vars: map[int]string{1: "3"}}} {
		full, err := a.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{1, 2, 7, 39, len(full), len(full) + 5} {
			q.Limit = limit
			got, err := a.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want := full[:min(limit, len(full))]
			if len(got) != len(want) {
				t.Fatalf("%+v: served %d entries, want %d", q, len(got), len(want))
			}
			for i := range got {
				if !got[i].Time.Equal(want[i].Time) || got[i].Service != want[i].Service ||
					got[i].PatternID != want[i].PatternID || strings.Join(got[i].Vars, "\x00") != strings.Join(want[i].Vars, "\x00") {
					t.Fatalf("%+v: entry %d = %+v, want %+v", q, i, got[i], want[i])
				}
			}
		}
	}
}

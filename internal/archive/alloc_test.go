package archive

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/testenv"
	"repro/internal/vfs"
)

// TestAppendZeroAllocs pins the archive append hot path at zero
// allocations per record in steady state: appending to a warmed
// in-memory block is a map lookup, four amortized column appends and
// two metric bumps. The seal threshold is set above the workload so no
// measured iteration pays for a flush, and the block's columns are
// grown past their final size by a warm-up pass first. bench/ prices the
// same path as archive.append_ns_per_rec.
func TestAppendZeroAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a, err := Open("archive", Options{FS: vfs.NewFault(), Shards: 1, FlushRecords: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2026, 3, 1, 10, 0, 0, 0, time.UTC)
	vars := [][]byte{[]byte("203.0.113.9"), []byte("22")}
	// Warm-up: land the pattern in the block dictionary and grow the
	// column buffers past what the measured runs will need.
	for i := 0; i < 10000; i++ {
		if err := a.Append("sshd", "p-conn", ts, vars, 60); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := a.Append("sshd", "p-conn", ts, vars, 60); err != nil {
			t.Fatal(err)
		}
	})
	// The amortized column growth may still trigger inside a measured
	// run; anything beyond that is a regression on the hot path.
	if avg > 0.01 {
		t.Fatalf("archive append allocates %.4f per record, budget is 0", avg)
	}
}

// TestQueryDecodeAllocBudget bounds the per-query allocation cost of
// reading one cached block: with the decoded block already in the LRU
// cache, a query allocates only the result entries (one Entry, its Vars
// slice and the materialized strings per record) plus a bounded number
// of bookkeeping slices — not a fresh decompression.
func TestQueryDecodeAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a, err := Open("archive", Options{FS: vfs.NewFault(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2026, 3, 1, 10, 0, 0, 0, time.UTC)
	const records = 64
	for i := 0; i < records; i++ {
		if err := a.Append("sshd", "p-conn", ts.Add(time.Duration(i)*time.Second), [][]byte{[]byte("203.0.113.9")}, 60); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	q := Query{Service: "sshd"}
	// Warm the cache: the first query decompresses, later ones must not.
	if _, err := a.Query(q); err != nil {
		t.Fatal(err)
	}
	missesBefore := a.m.ArchiveCacheMisses.Value()
	avg := testing.AllocsPerRun(100, func() {
		entries, err := a.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != records {
			t.Fatalf("query returned %d entries, want %d", len(entries), records)
		}
	})
	if got := a.m.ArchiveCacheMisses.Value(); got != missesBefore {
		t.Fatalf("warm queries still decoded blocks: %d cache misses during the measured runs", got-missesBefore)
	}
	// ~4 allocations per returned entry (entry fields + growth) plus a
	// fixed overhead for the result and scratch slices.
	budget := float64(4*records + 32)
	if avg > budget {
		t.Fatalf("warm query allocates %.1f, budget is %.0f (%d entries)", avg, budget, records)
	}
}

// TestArchiveFlushAllocs bounds what sealing costs per block: one round
// appends a record to each of 16 services in one bucket and flushes, so
// the round seals 16 blocks into one segment. The block encoder, the
// segment buffer and the footer scratch are reused across flushes; what
// remains per block is the block itself, one allocation for its three
// columns sized from the service's previous block, its dictionary, and
// its share of the segment's file handle, footer and index entry. One
// block file per block, the format segments replaced, measured 18.4
// allocations per sealed block on this loop; segments measure 4.1.
func TestArchiveFlushAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a, err := Open("archive", Options{FS: vfs.NewFault(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 16
	services := make([]string, blocks)
	for i := range services {
		services[i] = fmt.Sprintf("svc%03d", i)
	}
	ts := time.Date(2026, 3, 1, 10, 0, 0, 0, time.UTC)
	vars := [][]byte{[]byte("203.0.113.9"), []byte("22")}
	round := func() {
		for _, svc := range services {
			if err := a.Append(svc, "p-conn", ts, vars, 60); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the encoder and the reusable buffers
	perBlock := testing.AllocsPerRun(50, round) / blocks
	const budget = 5
	if perBlock > budget {
		t.Fatalf("sealing allocates %.2f per block, budget is %d", perBlock, budget)
	}
	t.Logf("%.2f allocations per sealed block", perBlock)
}

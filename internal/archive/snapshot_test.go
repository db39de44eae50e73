package archive

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestQuerySnapshotDuringFlush races a reader against a writer that
// appends to four services and flushes in a loop, once with explicit
// flushes only and once with a seal threshold so low that appends
// publish segments too. Every query must see each record of its service
// exactly once: none appended before the query started may be missing
// (a flush publishing between the reader's look at the published blocks
// and its look at the open ones would hide them), none may be served
// twice, and none may come from the future.
func TestQuerySnapshotDuringFlush(t *testing.T) {
	for _, tc := range []struct {
		name         string
		flushRecords int
	}{{"flush", 0}, {"autoseal", 3}} {
		t.Run(tc.name, func(t *testing.T) { querySnapshotDuringFlush(t, tc.flushRecords) })
	}
}

func querySnapshotDuringFlush(t *testing.T, flushRecords int) {
	a, err := Open(t.TempDir(), Options{FS: vfs.OS{}, Shards: 2, FlushRecords: flushRecords})
	if err != nil {
		t.Fatal(err)
	}
	services := []string{"a", "b", "c", "d"}
	var started, completed atomic.Int64 // appends to "c"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ts := t0.Add(time.Duration(i) * time.Millisecond)
			for _, svc := range services {
				if svc == "c" {
					started.Add(1)
				}
				if err := a.Append(svc, "p", ts, [][]byte{[]byte(strconv.Itoa(i))}, 10); err != nil {
					werr = err
					return
				}
				if svc == "c" {
					completed.Add(1)
				}
			}
			if err := a.Flush(); err != nil {
				werr = err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
		if werr != nil {
			t.Fatal(werr)
		}
	}()
	// At least 400 queries, and enough of them to overlap 100 flushes.
	for q := 0; q < 400 || completed.Load() < 100; q++ {
		floor := completed.Load()
		entries, err := a.Query(Query{Service: "c"})
		if err != nil {
			t.Fatal(err)
		}
		ceil := started.Load()
		seen := make(map[string]bool, len(entries))
		for _, e := range entries {
			if seen[e.Vars[0]] {
				t.Fatalf("query %d served record %s twice", q, e.Vars[0])
			}
			seen[e.Vars[0]] = true
		}
		if n := int64(len(entries)); n < floor || n > ceil {
			t.Fatalf("query %d served %d records, want between %d and %d", q, n, floor, ceil)
		}
	}
}

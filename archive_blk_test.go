package sequence_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// TestArchiveBlockFileFixture is the compatibility contract for archives
// written before segments. testdata/archive-blk was written by the last
// build that sealed one b-<bucket>-<seq>.blk file per block: 30 block
// files over two hour buckets and five services, with automatic seals,
// explicit flushes and records that share a timestamp across services.
// testdata/archive-blk.golden.json holds that build's answers to a table
// of queries. Opened here, the archive must serve those answers byte
// for byte, write only segments from its first flush on, retire the
// block files by retention like any segment, and pdbtool archive ls
// must list block files and segment blocks alike.
func TestArchiveBlockFileFixture(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "archive")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadDir("testdata/archive-blk")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range legacy {
		b, err := os.ReadFile(filepath.Join("testdata/archive-blk", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// 1. The golden answers, byte for byte.
	type golden struct {
		Name      string            `json:"name"`
		Service   string            `json:"service"`
		PatternID string            `json:"pattern_id"`
		From      string            `json:"from"`
		To        string            `json:"to"`
		Vars      map[string]string `json:"vars"`
		Limit     int               `json:"limit"`
		Entries   json.RawMessage   `json:"entries"`
	}
	raw, err := os.ReadFile("testdata/archive-blk.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var queries []golden
	if err := json.Unmarshal(raw, &queries); err != nil {
		t.Fatal(err)
	}
	a, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range queries {
		q := archive.Query{Service: g.Service, PatternID: g.PatternID, Limit: g.Limit}
		for _, tb := range []struct {
			s   string
			dst *time.Time
		}{{g.From, &q.From}, {g.To, &q.To}} {
			if tb.s == "" {
				continue
			}
			if *tb.dst, err = time.Parse(time.RFC3339Nano, tb.s); err != nil {
				t.Fatal(err)
			}
		}
		for k, v := range g.Vars {
			idx, err := strconv.Atoi(k)
			if err != nil {
				t.Fatal(err)
			}
			if q.Vars == nil {
				q.Vars = map[int]string{}
			}
			q.Vars[idx] = v
		}
		entries, err := a.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if entries == nil {
			entries = []archive.Entry{}
		}
		got, err := json.Marshal(entries)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, g.Entries); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("query %q over the block files:\n got %s\nwant %s", g.Name, got, want.Bytes())
		}
	}

	// 2. The first flush after the open writes only segments and leaves
	// every block file as it was.
	fresh := time.Date(2026, 3, 2, 12, 5, 0, 0, time.UTC)
	for i, svc := range []string{"sshd", "nginx", "cron"} {
		if err := a.Append(svc, "p-new", fresh.Add(time.Duration(i)*time.Second), [][]byte{[]byte("v" + svc)}, 40); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var blkFiles, segFiles int
	for _, e := range names {
		switch {
		case strings.HasSuffix(e.Name(), ".blk"):
			blkFiles++
			got, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata/archive-blk", e.Name()))
			if err != nil {
				t.Fatalf("flush wrote a block file %s: %v", e.Name(), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("flush rewrote block file %s", e.Name())
			}
		case strings.HasPrefix(e.Name(), "s-") && strings.HasSuffix(e.Name(), ".seg"):
			segFiles++
		default:
			t.Fatalf("flush left an unexpected file %s", e.Name())
		}
	}
	if blkFiles != len(legacy) || segFiles != 1 {
		t.Fatalf("after the first flush: %d block files (want %d), %d segments (want 1)", blkFiles, len(legacy), segFiles)
	}
	all, err := a.Query(archive.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 130 + 3; len(all) != want {
		t.Fatalf("block files and segment serve %d records together, want %d", len(all), want)
	}

	// 3. pdbtool lists the block files and the segment's blocks alike.
	if !testing.Short() {
		out, _ := run(t, nil, filepath.Join(buildTools(t), "pdbtool"), "archive", "ls", dir)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var blkLines, segLines int
		for _, l := range lines[:len(lines)-1] {
			switch {
			case strings.HasPrefix(l, "b-") && strings.Contains(l, ".blk  service="):
				blkLines++
			case strings.HasPrefix(l, "s-") && strings.Contains(l, ".seg@") && strings.Contains(l, "  service="):
				segLines++
			default:
				t.Fatalf("pdbtool archive ls printed %q", l)
			}
		}
		if blkLines != len(legacy) || segLines != 3 || !strings.HasPrefix(lines[len(lines)-1], "33 blocks, 133 records, ") {
			t.Fatalf("pdbtool archive ls: %d block-file lines, %d segment-block lines, summary %q\n%s", blkLines, segLines, lines[len(lines)-1], out)
		}
	}

	// 4. Retention retires the block files by their bucket, as it
	// retires segments; the young segment stays.
	m := obs.New()
	a, err = archive.Open(dir, archive.Options{
		FS:        vfs.OS{},
		Metrics:   m,
		Retention: time.Hour,
		Now:       func() time.Time { return fresh.Add(30 * time.Minute) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().ArchiveRetiredBlocks; got != int64(len(legacy)) {
		t.Fatalf("retention retired %d files, want the %d block files", got, len(legacy))
	}
	names, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || !strings.HasSuffix(names[0].Name(), ".seg") {
		t.Fatalf("after retention the directory holds %d files, want the one segment", len(names))
	}
	if all, err = a.Query(archive.Query{}); err != nil || len(all) != 3 {
		t.Fatalf("after retention: %d records served, err %v; want the 3 in the segment", len(all), err)
	}
}

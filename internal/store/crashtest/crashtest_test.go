package crashtest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// legacyDB is the v1 database committed for the compatibility contract:
// a snapshot, two sharded v1 journals holding upserts, touches and
// deletes, and a pre-sharding journal.wal.
const legacyDB = "../../../testdata/legacy-v1"

type variant struct {
	name  string
	files map[string][]byte // database the run starts from; nil = empty
}

// variants are the starting states the crash harness runs from: an empty
// directory (v2), and the committed v1 database (upgrade), whose first
// open replays the v1 journals, compacts and retires the stray legacy
// journal under the same crash schedule as the script that follows. CI
// selects one with -run '/v2$' or -run '/upgrade$'; a plain go test runs
// both.
func variants(t *testing.T) []variant {
	t.Helper()
	entries, err := os.ReadDir(legacyDB)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(legacyDB, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	// The model of the seed is read through the store under test; pin it
	// to what the v1 writer's own build read back, so a replay bug
	// cannot hide by agreeing with itself.
	raw, err := os.ReadFile(legacyDB + ".golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		ID    string `json:"id"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	_, model, err := seed(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(model) != len(golden) {
		t.Fatalf("seed model holds %d patterns, golden %d", len(model), len(golden))
	}
	for _, g := range golden {
		if s := model[g.ID]; s == nil || s.barrierCount != g.Count {
			t.Fatalf("seed model disagrees with golden pattern %s (count %d)", g.ID, g.Count)
		}
	}
	return []variant{{"v2", nil}, {"upgrade", files}}
}

// TestCrashMatrix crashes the scripted workload at every mutating disk
// operation it performs, in both crash loss modes and from both starting
// states, and checks the full durability contract at each point. The
// acceptance floor is 200 distinct crash points per variant; the script
// is sized to clear it.
func TestCrashMatrix(t *testing.T) {
	ops := Script()
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			steps, err := Probe(ops, v.files)
			if err != nil {
				t.Fatalf("probe run: %v", err)
			}
			t.Logf("workload performs %d mutating disk operations", steps)
			if steps < 200 {
				t.Fatalf("crash schedule has %d points, want >= 200 — grow the script", steps)
			}
			for _, keep := range []bool{false, true} {
				for k := 1; k <= steps; k++ {
					if err := RunCrash(ops, k, keep, v.files); err != nil {
						t.Errorf("crash at step %d (keepUnsynced=%v): %v", k, keep, err)
						if testing.Short() {
							t.FailNow()
						}
					}
				}
			}
		})
	}
}

// TestRecoveryCrash crashes the workload, then crashes the recovery
// itself at each of its own disk operations (stride-sampled over the
// first crash point to bound runtime) and re-checks the invariants:
// recovery must be as crash-safe as normal operation.
func TestRecoveryCrash(t *testing.T) {
	ops := Script()
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			steps, err := Probe(ops, v.files)
			if err != nil {
				t.Fatalf("probe run: %v", err)
			}
			stride := 7
			if testing.Short() {
				stride = 29
			}
			for _, keep := range []bool{false, true} {
				for k := 1; k <= steps; k += stride {
					if err := RunRecoveryCrash(ops, k, keep, v.files); err != nil {
						t.Errorf("first crash at step %d (keepUnsynced=%v): %v", k, keep, err)
					}
				}
			}
		})
	}
}

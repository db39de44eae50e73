package crashtest

import "testing"

// legacyDB is the v1 database committed for the compatibility contract:
// a snapshot, two sharded v1 journals holding upserts, touches and
// deletes, and a pre-sharding journal.wal.
const legacyDB = "../../testdata/legacy-v1"

// subjects returns every crash subject: store/v2, store/upgrade,
// archive and archive/retention. CI runs one per job with
// -run '/<subject>$'; a plain go test runs them all.
func subjects(t *testing.T) []Subject {
	t.Helper()
	st, err := StoreSubjects(legacyDB)
	if err != nil {
		t.Fatal(err)
	}
	return append(st, ArchiveSubjects()...)
}

// TestCrashMatrix crashes each subject's workload at every mutating disk
// operation it performs, in both crash loss modes, and checks the
// subject's durability contract at each point.
func TestCrashMatrix(t *testing.T) {
	for _, s := range subjects(t) {
		t.Run(s.Name, func(t *testing.T) { CrashMatrix(t, s) })
	}
}

// TestRecoveryCrash crashes each subject's workload, then crashes the
// recovery itself at each of its own disk operations and re-checks the
// invariants.
func TestRecoveryCrash(t *testing.T) {
	for _, s := range subjects(t) {
		t.Run(s.Name, func(t *testing.T) { RecoveryCrash(t, s) })
	}
}

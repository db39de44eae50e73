package route

import (
	"hash/fnv"
	"testing"
)

// TestShardMatchesFNV32a pins the router to hash/fnv's New32a mod n, the
// rule every existing journal-NNN.wal layout and archive shard was
// written under: a drift would route a reopened service's records to a
// different shard than the one holding its history.
func TestShardMatchesFNV32a(t *testing.T) {
	services := []string{"", "a", "sshd", "kernel", "svc003", "mixed", "app-01", "utilisateur-rené", "a-much-longer-service-name/with/slashes", "\xff\x00\x80"}
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, svc := range services {
			h := fnv.New32a()
			h.Write([]byte(svc))
			want := int(h.Sum32() % uint32(n))
			if got := Shard(svc, n); got != want {
				t.Errorf("Shard(%q, %d) = %d, want %d", svc, n, got, want)
			}
		}
	}
}

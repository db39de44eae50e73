// Package route is the one service-to-shard rule of the pipeline. The
// parser's index, the pattern store and the archive all partition their
// state by service with it, so a service's work lands on the same shard
// index in every layer, and journal-NNN.wal files and archive shards keep
// the layout they were written under.
package route

// Shard returns the shard of service among n shards: the 32-bit FNV-1a
// hash of its bytes, bit-identical to hash/fnv's New32a, modulo n. The
// hash runs over the string in place, so routing never allocates. The
// reduction stays in uint32: converting the hash to int first would make
// it negative on 32-bit platforms for hashes >= 2^31.
//
//seqrtg:noalloc
func Shard(service string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(service); i++ {
		h ^= uint32(service[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

package store

// This file implements key partitioning for the multi-server datastore
// tier. The paper's store is "sharded so added instances scale linearly"
// (§7.1); here a PartitionMap assigns every Key to exactly one shard server
// by rendezvous (highest-random-weight) hashing, which has the consistent-
// hashing property the tier needs: adding or removing one shard only
// remaps the keys that shard gains or loses, never keys between two
// surviving shards. The chain root holds the authoritative map and serves
// it to recovering components (PartitionQuery); clients receive it at
// deployment time through ClientConfig.Shards.

// PartitionQuery asks the root for the current partition map (store-shard
// recovery, late-joining components, tests). The reply is a *PartitionMap.
type PartitionQuery struct{}

// PartitionMap maps keys onto the datastore tier's shard endpoints.
// It is immutable after construction; changing the shard set mid-run means
// building (and distributing) a new map with a higher version.
type PartitionMap struct {
	Version uint64
	Shards  []string // shard server endpoint names

	hashes []uint64 // per-shard name hashes for rendezvous scoring
}

// NewPartitionMap builds a version-1 map over the given shard endpoints.
func NewPartitionMap(shards []string) *PartitionMap {
	m := &PartitionMap{Version: 1, Shards: append([]string(nil), shards...)}
	m.hashes = make([]uint64, len(m.Shards))
	for i, s := range m.Shards {
		m.hashes[i] = fnv64(s)
	}
	return m
}

// Index returns the index of the shard owning k. With a single shard every
// key maps to it, so a one-shard tier behaves exactly like the pre-sharding
// single server.
func (m *PartitionMap) Index(k Key) int {
	if len(m.Shards) <= 1 {
		return 0
	}
	kh := keyHash(k)
	best, bestScore := 0, uint64(0)
	for i, sh := range m.hashes {
		score := mix64(kh ^ sh)
		if i == 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// ShardFor returns the endpoint name of the shard owning k.
func (m *PartitionMap) ShardFor(k Key) string { return m.Shards[m.Index(k)] }

// Copy returns an independent copy (roots hand these out over RPC).
func (m *PartitionMap) Copy() *PartitionMap {
	c := NewPartitionMap(m.Shards)
	c.Version = m.Version
	return c
}

// keyHash folds a Key into 64 bits; sub-keys dominate so per-flow/per-host
// objects of one vertex spread across shards rather than colocating.
func keyHash(k Key) uint64 {
	return mix64(uint64(k.Vertex)<<48 ^ uint64(k.Obj)<<32 ^ k.Sub)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fnv64 hashes a shard name (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// op is one generated operation. key is the ordinal among the keys its
// client owns (global index = key*clients + client).
type op struct {
	key  uint32
	kind uint8
	size uint8 // index into the workload's distinct sizes; sets only
}

// keySlab holds every key of a workload pre-rendered back to back, so the
// timed loops format nothing.
type keySlab []byte

func newKeySlab(n int) keySlab {
	s := make(keySlab, 0, n*keyLen)
	for i := 0; i < n; i++ {
		s = fmt.Appendf(s, "key-%010d", i)
	}
	return s
}

func (s keySlab) key(i uint32) []byte {
	return s[int(i)*keyLen : int(i)*keyLen+keyLen : int(i)*keyLen+keyLen]
}

// ownedKeys is the number of key indices congruent to client mod clients.
func ownedKeys(keys, client, clients int) int {
	return (keys - client + clients - 1) / clients
}

// distinctSizes lists a workload's value sizes without repeats, in order of
// first appearance; op.size indexes it.
func distinctSizes(w *workload) []int {
	var out []int
	for _, s := range w.sizes {
		found := false
		for _, o := range out {
			found = found || o == s
		}
		if !found {
			out = append(out, s)
		}
	}
	return out
}

func sizeIndex(sizes []int, size int) uint8 {
	for i, s := range sizes {
		if s == size {
			return uint8(i)
		}
	}
	panic("size not in workload")
}

// genStream builds the cyclic op array of one client, entirely from
// (workload, seed, client): kinds and sizes are the workload's fixed
// patterns repeated n/period times and then shuffled, so their counts are
// the same for every seed; only which keys are hit changes.
func genStream(w *workload, keys int, seed int64, client, clients, n int) []op {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + int64(h.Sum64()>>1)))

	ops := make([]op, n)
	for i := range ops {
		ops[i].kind = w.kinds[i%len(w.kinds)]
	}
	rng.Shuffle(n, func(i, j int) { ops[i].kind, ops[j].kind = ops[j].kind, ops[i].kind })

	sizes := distinctSizes(w)
	var setSizes []uint8
	for i := range ops {
		if ops[i].kind == opSet {
			setSizes = append(setSizes, sizeIndex(sizes, w.sizes[len(setSizes)%len(w.sizes)]))
		}
	}
	rng.Shuffle(len(setSizes), func(i, j int) { setSizes[i], setSizes[j] = setSizes[j], setSizes[i] })

	own := ownedKeys(keys, client, clients)
	var zipf *rand.Zipf
	var perm []int
	if w.zipf {
		zipf = rand.NewZipf(rng, 1.01, 1, uint64(own-1))
		perm = rng.Perm(own) // popularity rank -> owned key, so hot keys are spread out
	}
	next := 0
	for i := range ops {
		if zipf != nil {
			ops[i].key = uint32(perm[zipf.Uint64()])
		} else {
			ops[i].key = uint32(rng.Intn(own))
		}
		if ops[i].kind == opSet {
			ops[i].size = setSizes[next]
			next++
		}
	}
	return ops
}

package main

import (
	"encoding/binary"
	"math/rand"
)

// The correctness oracle. Every stored value names the key index and the
// per-key version it was written for, and every later word is seeded filler
// XORed with a tag derived from (key, version, length): a reader that knows
// which key it asked for and which version its owner last wrote can tell a
// good value from a stale one (older version), a misplaced one (another
// key's bytes) and a torn one (words of two writes, or a wrong length).
//
//	word 0   key index (low 32 bits) | version (high 32 bits)
//	word 1   tag
//	word j   filler[j] ^ tag

const (
	minValue = 16
	maxValue = 1024
)

type verdict uint8

const (
	valueOK verdict = iota
	valueStale
	valueTorn
	valueMisplaced
	valueMissing    // absent, but its owner's last acknowledged op stored it
	valueUnexpected // present, but its owner's last acknowledged op deleted it
)

var verdictNames = [...]string{"ok", "stale", "torn", "misplaced", "missing", "unexpected"}

type oracle struct {
	seed   uint64
	filler [maxValue / 8]uint64
}

func newOracle(seed int64) *oracle {
	o := &oracle{seed: uint64(seed)*0x9E3779B97F4A7C15 + 1}
	rng := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	for i := range o.filler {
		o.filler[i] = rng.Uint64()
	}
	return o
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

func (o *oracle) tag(key, ver uint32, size int) uint64 {
	return mix64(o.seed ^ (uint64(ver)<<32 | uint64(key)) ^ uint64(size)<<52)
}

// encode writes the value of (key, ver) at the given size (a multiple of 8
// in [minValue, maxValue]) into dst and returns it.
func (o *oracle) encode(dst []byte, key, ver uint32, size int) []byte {
	dst = dst[:size]
	tag := o.tag(key, ver, size)
	binary.LittleEndian.PutUint64(dst, uint64(ver)<<32|uint64(key))
	binary.LittleEndian.PutUint64(dst[8:], tag)
	for j := 2; j < size/8; j++ {
		binary.LittleEndian.PutUint64(dst[j*8:], o.filler[j]^tag)
	}
	return dst
}

// check judges a value read for key whose owner last wrote version ver.
func (o *oracle) check(v []byte, key, ver uint32) verdict {
	if len(v) < minValue || len(v) > maxValue || len(v)%8 != 0 {
		return valueTorn
	}
	head := binary.LittleEndian.Uint64(v)
	if uint32(head) != key {
		return valueMisplaced
	}
	if uint32(head>>32) != ver {
		return valueStale
	}
	tag := o.tag(key, ver, len(v))
	if binary.LittleEndian.Uint64(v[8:]) != tag {
		return valueTorn
	}
	for j := 2; j < len(v)/8; j++ {
		if binary.LittleEndian.Uint64(v[j*8:]) != o.filler[j]^tag {
			return valueTorn
		}
	}
	return valueOK
}

// Per-key state as its owner knows it: version<<1 | live. Version 0 means
// the key was never written.
func keyState(ver uint32, live bool) uint32 {
	s := ver << 1
	if live {
		s |= 1
	}
	return s
}

func stateVer(s uint32) uint32 { return s >> 1 }
func stateLive(s uint32) bool  { return s&1 == 1 }

// judge is the whole read-side rule: found/value is what the system
// returned for key, state what the key's owner last did to it. evictable
// says a live key may legitimately be absent (the cache is allowed to have
// evicted it); nothing ever excuses a present value that is not the latest.
func (o *oracle) judge(v []byte, found bool, key uint32, state uint32, evictable bool) verdict {
	if !found {
		if stateLive(state) && !evictable {
			return valueMissing
		}
		return valueOK
	}
	if !stateLive(state) {
		return valueUnexpected
	}
	return o.check(v, key, stateVer(state))
}

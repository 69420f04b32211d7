//go:build race || !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package nvram

import (
	"encoding/binary"
	"sync/atomic"
)

// The range accesses (StorePrivateBytes, LoadBytes) go a word at a time here,
// each word one atomic access, packed little-endian. Race builds need this: the
// detector must see the address-order sweep read extents that are still
// being written (see StorePrivate). Big-endian targets need it because a
// byte view of their words would read the bytes in the other order.

// storeWords fills dst from src.
func storeWords(dst []uint64, src *byteCursor) {
	var b [WordSize]byte
	for k := range dst {
		src.fill(b[:])
		atomic.StoreUint64(&dst[k], binary.LittleEndian.Uint64(b[:]))
	}
}

// loadWords copies src's bytes from skip on into out.
func loadWords(src []uint64, skip uint64, out []byte) {
	var b [WordSize]byte
	for k := range src {
		binary.LittleEndian.PutUint64(b[:], atomic.LoadUint64(&src[k]))
		out = out[copy(out, b[skip:]):]
		skip = 0
	}
}

//go:build !race && (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package nvram

// The range accesses (StorePrivateBytes, LoadBytes) copy through a byte view
// of the volatile image: on a little-endian target a word's bytes lie in
// memory in the order the device packs them (byte i at bit 8i). Race builds
// and big-endian targets take words_atomic.go instead.

// storeWords fills dst from src.
func storeWords(dst []uint64, src *byteCursor) { src.fill(asBytes(dst)) }

// loadWords copies src's bytes from skip on into out.
func loadWords(src []uint64, skip uint64, out []byte) { copy(out, asBytes(src)[skip:]) }

package nvram

import (
	"fmt"
	"testing"
)

// BenchmarkFlusherCLWB measures one CLWB-batch + Fence cycle at typical
// batch sizes. It is the crossover measurement behind clwbDedupThreshold:
// small batches (a byte-map Set touches 2-6 lines) must stay on the linear
// scan with zero map overhead, while large batches (a link-cache FlushAll,
// recovery sweeps, region initialization) must not degrade quadratically in
// the duplicate check.
// Each iteration issues 2x CLWBs per line (every line scheduled twice, the
// dedup worst case) and one Fence.
func BenchmarkFlusherCLWB(b *testing.B) {
	for _, lines := range []int{2, 4, 8, 16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("%dlines", lines), func(b *testing.B) {
			dev := New(Config{Size: uint64(lines+1) * LineSize})
			f := dev.NewFlusher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := 0; l < lines; l++ {
					a := Addr(l+1) * LineSize
					f.CLWB(a)
					f.CLWB(a) // duplicate: exercises the dedup check
				}
				f.Fence()
			}
			b.ReportMetric(float64(lines), "lines/batch")
		})
	}
}

package distnet

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/tucker"
)

// BenchmarkDistNet measures the full multi-process campaign — IPC, store
// round-trips, and the phases of the join-free route this intact partition
// takes — against worker count. Only a signature's first campaign spawns
// its fleet, so as b.N grows ns/op is a warm campaign's cost.
func BenchmarkDistNet(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := tinyPartition(b, 1, 300)
			ranks := tucker.UniformRanks(5, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := Options{
					Method: core.SELECT, Ranks: ranks,
					Workers: workers, Shards: 4,
					WorkDir: b.TempDir(),
				}
				res, err := Decompose(context.Background(), p, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Core == nil {
					b.Fatal("no core")
				}
			}
		})
	}
}

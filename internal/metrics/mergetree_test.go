package metrics

import (
	"fmt"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/pricing"
)

// BenchmarkMergeTree times the windowed replay's cross-shard merge: k
// shard accumulators, each fed the same 1,024-record stream over 100 ms
// windows (about 14 of them, as every shard of a fleet sees records
// finish across the whole run), folded by MergeTree. The accumulators
// are rebuilt with the timer stopped, so ns, B and allocs per op are the
// merge's alone.
func BenchmarkMergeTree(b *testing.B) {
	recs := sinkRecords(1024)
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("%dshards", k), func(b *testing.B) {
			accs := make([]*WindowedAccumulator, k)
			build := func() {
				for i := range accs {
					w, err := NewWindowedAccumulator(pricing.Default(), 100*time.Millisecond)
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range recs {
						w.Push(r)
					}
					accs[i] = w
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				build()
				b.StartTimer()
				root, err := MergeTree(accs)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if tot := root.Total(); tot.Completed()+tot.FailedCount() != k*len(recs) {
					b.Fatalf("merged %d records, want %d", tot.Completed()+tot.FailedCount(), k*len(recs))
				}
				b.StartTimer()
			}
		})
	}
}

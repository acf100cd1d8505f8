// RunWindowed is the standard fixed-memory wiring of the elastic fleet:
// one windowed sub-accumulator sink per server, merged in server-index
// order. Both the facade (SimulateAutoscaled) and the ext-autoscale
// experiment call it, so the sink-collection and merge semantics cannot
// drift between them.

package autoscale

import (
	"time"

	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/workload"
)

// RunWindowed runs cfg over src with per-server metrics.WindowedAccumulator
// sinks of the given width billing at tariff, and returns the merged sink
// alongside the fleet result, which keeps no exact records.
func RunWindowed(cfg Config, src workload.Source, tariff pricing.Tariff, width time.Duration) (*metrics.WindowedAccumulator, *Result, error) {
	// Validate the width before the run so the per-server sinks can't fail.
	merged, err := metrics.NewWindowedAccumulator(tariff, width)
	if err != nil {
		return nil, nil, err
	}
	var sinks []*metrics.WindowedAccumulator
	res, err := run(cfg, src, func(server int) metrics.Sink {
		w, werr := metrics.NewWindowedAccumulator(tariff, width)
		if werr != nil {
			panic(werr) // unreachable: width validated above
		}
		sinks = append(sinks, w) // servers activate in index order
		return w
	})
	if err != nil {
		return nil, nil, err
	}
	for _, w := range sinks { // server-index order: deterministic merge
		if err := merged.Merge(w); err != nil {
			return nil, nil, err
		}
	}
	return merged, res, nil
}

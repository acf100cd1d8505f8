// Package obs is the simulator's observability layer: a unified
// counter/gauge registry (replacing per-subsystem ad-hoc tallies), a
// simulated-time Chrome trace-event exporter, and run-telemetry
// plumbing (progress heartbeats, run reports, peak-RSS probes) for the
// CLIs.
//
// The governing invariant is that observation is inert: enabling any of
// it must not change a single simulated decision (golden digests are
// identical with tracing on), and leaving it disabled must cost nothing
// on the hot event/dispatch paths — every hook in simkern/ghost/cluster/
// autoscale sits behind a nil check on a pointer that is nil by default,
// so the disabled path is one predictable branch and zero allocations.
//
// Concurrency model: the Registry is owned by a single control thread
// (router, merge loop, autoscale controller); parallel shard workers never
// touch it — the fleet engine folds their servers' integer counters in
// after they finish. The Tracer is internally locked (workers emit
// concurrently); Progress is atomics.
package obs

import "github.com/faassched/faassched/internal/metrics"

// Obs bundles the three observation facilities. A nil *Obs (or a nil
// field) disables the corresponding facility; all accessors are
// nil-receiver-safe so config structs can embed a single optional
// pointer.
type Obs struct {
	// Counters receives the run's counter/gauge totals. Updated only
	// from control threads; see the package comment.
	Counters *Registry
	// Trace receives simulated-time trace events (may be shared across
	// goroutines; the Tracer locks internally).
	Trace *Tracer
	// Prog receives watermark/routed/retired progress atomics for
	// heartbeat displays.
	Prog *Progress
}

// Registry returns the counter registry, or nil when disabled.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Counters
}

// Tracer returns the trace exporter, or nil when disabled.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Progress returns the progress atomics, or nil when disabled.
func (o *Obs) Progress() *Progress {
	if o == nil {
		return nil
	}
	return o.Prog
}

// WrapSink taps a per-server record sink for tracing and progress
// accounting. It returns inner unchanged when neither is enabled, so the
// disabled path adds no indirection to record retirement.
func (o *Obs) WrapSink(server int, inner metrics.Sink) metrics.Sink {
	tr, pg := o.Tracer(), o.Progress()
	if tr == nil && pg == nil {
		return inner
	}
	return &sinkTap{inner: inner, tr: tr, pg: pg, server: server}
}

type sinkTap struct {
	inner  metrics.Sink
	tr     *Tracer
	pg     *Progress
	server int
}

func (s *sinkTap) Push(r metrics.Record) {
	if s.tr != nil {
		s.tr.TaskRecord(s.server, r)
	}
	if s.pg != nil {
		s.pg.Done.Add(1)
	}
	if s.inner != nil {
		s.inner.Push(r)
	}
}

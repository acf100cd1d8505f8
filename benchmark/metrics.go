package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced measurement reports. Host metrics
// are medians over the measurement's timed passes, with wall times scaled
// to the reference host speed; sim metrics are exact and identical in
// every pass of one seed.
var endToEnd = []metricDef{
	{"inv_per_s", "1/s", "higher"},          // routed invocations per scaled wall second of the replay, set-up excluded
	{"setup_s", "s", "lower"},               // trace synthesis plus opening (or, flat, materializing) the source, scaled
	{"peak_rss_mb", "MB", "lower"},          // the process's peak resident set over the pass
	{"alloc_bytes_per_inv", "B", "lower"},   // heap bytes allocated during the replay, per invocation
	{"allocs_per_inv", "count", "lower"},    // heap allocations during the replay, per invocation
	{"sim_cost_per_1k_usd", "USD", "lower"}, // billed execution cost per 1,000 completed invocations
	{"sim_p50_turnaround_s", "s", "lower"},
	{"sim_p99_turnaround_s", "s", "lower"},
	{"sim_p99_exec_s", "s", "lower"},
	{"sim_server_hours", "h", "lower"}, // provider-side server uptime billed
	{"goodput_frac", "frac", "higher"}, // completed records over routed invocations
}

// simulated reports whether an end-to-end metric is a pure function of the
// input. At one seed every pass reads it bit for bit alike, so -compare
// counts any change in it as a change of simulated behaviour, not noise.
func simulated(name string) bool {
	return strings.HasPrefix(name, "sim_") || name == "goodput_frac"
}

// perLayer are the metrics a traced measurement reports. A layer the
// workload's executor does not have reads 0.
var perLayer = []metricDef{
	{"workload.source_ns_per_inv", "ns", "lower"},
	{"cluster.pick_ns_per_inv", "ns", "lower"},
	{"cluster.book_ns_per_inv", "ns", "lower"},
	{"cluster.handoff_yield_ns_per_inv", "ns", "lower"},
	{"cluster.handoff_wait_ns_per_inv", "ns", "lower"},
	{"cluster.handoff_msgs_per_inv", "count", "lower"},
	{"cluster.watermarks", "count", "lower"},
	{"cluster.shard_event_imbalance", "ratio", "lower"},
	{"cluster.cold_start_frac", "frac", "lower"},
	{"simrun.live_servers", "count", "lower"},
	{"simrun.runto_calls", "count", "lower"},
	{"simrun.idle_runto_frac", "frac", "lower"},
	{"simrun.admit_ns_per_inv", "ns", "lower"},
	{"simrun.run_ns_per_event", "ns", "lower"},
	{"simrun.run_s", "s", "lower"},
	{"simkern.events_per_inv", "count", "lower"},
	{"ghost.ticks_fired_per_inv", "count", "lower"},
	{"ghost.tick_elided_frac", "frac", "higher"},
	{"ghost.commit_fail_frac", "frac", "lower"},
	{"ghost.migrations", "count", "lower"},
	{"policy.preemptions_per_inv", "count", "lower"},
	{"metrics.push_ns_per_inv", "ns", "lower"},
	{"metrics.merge_ms", "ms", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.cores_busy", "cores", "higher"},
	{"faults.kills", "count", "lower"},
	{"faults.goodput", "frac", "higher"},
	{"autoscale.launched", "count", "lower"},
	{"autoscale.mean_servers", "count", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.unattributed_frac", "frac", "lower"},
}

// value is one reported metric, in the shape the result line uses.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method (Python's statistics.quantiles default); with fewer than two
// values both are the only value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(p float64) float64 {
		h := p * float64(n+1) // 1-based position
		j := int(math.Floor(h))
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// endToEndMetrics assembles an untraced measurement's metrics from its
// timed engine passes. Wall times are scaled to the reference host speed
// (see hostref.go).
func endToEndMetrics(reps []*report) (map[string]value, map[string][]float64) {
	samples := map[string][]float64{}
	for _, r := range reps {
		n := float64(r.Outcome.Routed)
		f := r.hostFactor()
		samples["inv_per_s"] = append(samples["inv_per_s"], n*f/r.WallS)
		samples["setup_s"] = append(samples["setup_s"], r.SetupS/f)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], r.PeakRSSMB)
		samples["alloc_bytes_per_inv"] = append(samples["alloc_bytes_per_inv"], float64(r.AllocBytes)/n)
		samples["allocs_per_inv"] = append(samples["allocs_per_inv"], float64(r.Allocs)/n)
		for _, d := range endToEnd {
			if v, ok := r.Outcome.Sim[d.name]; ok {
				samples[d.name] = append(samples[d.name], v)
			}
		}
	}
	out := map[string]value{}
	for _, d := range endToEnd {
		out[d.name] = value{median(samples[d.name]), d.unit}
	}
	return out, samples
}

// layerMetrics assembles a traced measurement's metrics. Timings are
// medians over the passes of each mode; counts come from the engine
// passes' result structs, or from the replay for the structural counts
// only it observes.
func layerMetrics(w spec, reps []*report) map[string]value {
	by := map[mode][]*report{}
	for _, r := range reps {
		by[r.Mode] = append(by[r.Mode], r)
	}
	med := func(m mode, f func(*report) float64) float64 {
		var xs []float64
		for _, r := range by[m] {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	lay := func(m mode, l layer) float64 {
		return med(m, func(r *report) float64 { return r.Layers[layerNames[l]] })
	}
	base := by[modeEngine][0].Outcome
	n := float64(base.Routed)
	// The elastic facade reports no kernel or ghost counters; the direct
	// engine pass does, and the digest check ties it to the facade run.
	counts := base.Counts
	if _, ok := counts["events"]; !ok && len(by[modeEngineTimed]) > 0 {
		counts = by[modeEngineTimed][0].Outcome.Counts
	}
	cnt := func(k string) float64 { return counts[k] }
	perInvNs := func(s float64) float64 { return s * 1e9 / n }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v := map[string]float64{
		"cluster.cold_start_frac":       cnt("cold_starts") / n,
		"cluster.shard_event_imbalance": cnt("shard_event_imbalance"),
		"simrun.live_servers":           cnt("live_servers"),
		"simkern.events_per_inv":        cnt("events") / n,
		"ghost.ticks_fired_per_inv":     cnt("ticks") / n,
		"ghost.tick_elided_frac":        frac(cnt("ticks_elided"), cnt("ticks")+cnt("ticks_elided")),
		"ghost.commit_fail_frac":        frac(cnt("commit_fails"), cnt("commits")+cnt("commit_fails")),
		"ghost.migrations":              cnt("migrations"),
		"policy.preemptions_per_inv":    cnt("preemptions") / n,
		"faults.kills":                  cnt("kills"),
		"faults.goodput":                float64(base.Completed) / n,
		"autoscale.launched":            cnt("launched"),
		"autoscale.mean_servers":        cnt("mean_servers"),
		"runtime.gc_cpu_frac":           med(modeEngine, func(r *report) float64 { return r.GCCPUFrac }),
		"runtime.cores_busy":            med(modeEngine, func(r *report) float64 { return r.CPUS / r.WallS }),
	}

	if len(by[modeEngineTimed]) > 0 {
		v["workload.source_ns_per_inv"] = perInvNs(lay(modeEngineTimed, layerSource))
		v["cluster.handoff_yield_ns_per_inv"] = perInvNs(lay(modeEngineTimed, layerHandoff))
	} else {
		v["workload.source_ns_per_inv"] = perInvNs(med(modeEngine, func(r *report) float64 { return r.MaterializeS }))
	}
	if len(by[modeReplayTimed]) > 0 {
		rc := by[modeReplayTimed][0].Replay
		pick, book := lay(modeReplayTimed, layerPick), lay(modeReplayTimed, layerBook)
		run := lay(modeReplayTimed, layerRun)
		v["cluster.pick_ns_per_inv"] = perInvNs(pick)
		v["cluster.book_ns_per_inv"] = perInvNs(book)
		v["simrun.admit_ns_per_inv"] = perInvNs(lay(modeReplayTimed, layerAdmit))
		v["simrun.run_s"] = run
		v["simrun.run_ns_per_event"] = frac(run*1e9, cnt("events"))
		v["metrics.push_ns_per_inv"] = perInvNs(lay(modeReplayTimed, layerPush))
		v["metrics.merge_ms"] = lay(modeReplayTimed, layerMerge) * 1e3
		if w.exec == execSharded {
			v["cluster.handoff_wait_ns_per_inv"] = v["cluster.handoff_yield_ns_per_inv"] - perInvNs(pick+book)
			v["cluster.handoff_msgs_per_inv"] = (n + float64(rc.Watermarks*rc.Shards)) / n
			v["cluster.watermarks"] = float64(rc.Watermarks)
			v["simrun.runto_calls"] = float64(rc.RunTo)
			v["simrun.idle_runto_frac"] = frac(float64(rc.IdleRunTo), float64(rc.RunTo))
			v["simrun.live_servers"] = float64(rc.LiveServers)
		}
		untimed := med(modeReplay, func(r *report) float64 { return r.WallS })
		v["trace.overhead_frac"] = frac(med(modeReplayTimed, func(r *report) float64 { return r.WallS }), untimed) - 1
		v["trace.unattributed_frac"] = med(modeReplayTimed, unattributed)
	} else {
		untimed := med(modeEngine, func(r *report) float64 { return r.WallS })
		v["trace.overhead_frac"] = frac(med(modeEngineTimed, func(r *report) float64 { return r.WallS }), untimed) - 1
		v["trace.unattributed_frac"] = med(modeEngineTimed, unattributed)
	}

	out := map[string]value{}
	for _, d := range perLayer {
		out[d.name] = value{v[d.name], d.unit}
	}
	return out
}

// unattributed is the share of a timed pass's wall time no layer claimed.
func unattributed(r *report) float64 {
	sum := 0.0
	for _, s := range r.Layers {
		sum += s
	}
	return 1 - sum/r.WallS
}

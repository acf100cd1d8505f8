// Simulated-time trace exporter. Events stream out in Chrome
// trace-event JSON (the "JSON object format": {"traceEvents":[...]}),
// loadable in Perfetto / chrome://tracing. Timestamps and durations are
// microseconds (the format's unit) carrying the simulator's nanosecond
// precision as three fixed decimals, so formatting is pure integer math
// and byte-deterministic.
//
// Layout: pid 1 is the fleet — one tid per server carrying task
// lifecycle spans ("wait" arrival→first-run, "exec" first-run→finish),
// tick marks, and scale events; pid 0 tid 0 is the router (watermark
// broadcasts); pid 1000+server are optional per-core lanes (one tid per
// core) with run segments, off by default because their volume is
// O(events). Concurrent tasks on one server render as overlapping
// slices in a single lane, which Perfetto nests — adequate for "when
// did the cold start stall this lane" questions without an id per task.
//
// Determinism: every event line's bytes depend only on simulated state,
// never on shard count or goroutine interleaving; the writer mutex
// keeps lines atomic. Each event line ends with a comma and the footer
// is a fixed metadata event, so the same run at any shard count
// produces the same multiset of lines — sort and compare.

package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
)

// TraceConfig tunes what the Tracer emits.
type TraceConfig struct {
	// Every keeps only every Nth task's lifecycle spans, selected by
	// invocation ID so sampling is shard- and schedule-independent.
	// Values <= 1 keep all tasks. Tick, scale, and watermark marks are
	// never sampled out.
	Every int
	// Funcs restricts task spans to invocations with these labels
	// (funcKeys). Empty keeps all labels.
	Funcs []string
	// Segments additionally emits per-core run segments (pid
	// 1000+server, one tid per core). High volume: one span per
	// completion or preemption.
	Segments bool
	// BufBytes sizes the buffered writer; <= 0 means 1 MiB. The buffer
	// is the only memory the tracer holds — events stream straight out.
	BufBytes int
}

// Tracer streams trace events to one writer. Safe for concurrent use;
// all methods are nil-receiver-safe no-ops so call sites can hold a nil
// *Tracer when tracing is off.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	buf    []byte
	n      int64
	every  uint64
	funcs  map[string]struct{}
	segs   bool
	err    error
	closed bool
}

// NewTracer starts a trace stream on w (the caller owns closing any
// underlying file after Close).
func NewTracer(w io.Writer, cfg TraceConfig) *Tracer {
	size := cfg.BufBytes
	if size <= 0 {
		size = 1 << 20
	}
	t := &Tracer{
		w:     bufio.NewWriterSize(w, size),
		buf:   make([]byte, 0, 256),
		every: uint64(max(cfg.Every, 1)),
		segs:  cfg.Segments,
	}
	if len(cfg.Funcs) > 0 {
		t.funcs = make(map[string]struct{}, len(cfg.Funcs))
		for _, f := range cfg.Funcs {
			t.funcs[f] = struct{}{}
		}
	}
	if _, err := t.w.WriteString("{\"traceEvents\":[\n"); err != nil {
		t.err = err
	}
	return t
}

// Close terminates the JSON document and flushes. It does not close the
// underlying writer. Returns the first write error, if any.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	// The fixed metadata event absorbs the no-trailing-comma slot so
	// every real event line is uniformly comma-terminated.
	t.w.WriteString("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"fleet\"}}\n]}\n")
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Events returns how many events have been emitted (header/footer
// excluded).
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// keepTask applies every-Nth / funcKey sampling to task-level events.
func (t *Tracer) keepTask(id uint64, label string) bool {
	if t.every > 1 && id%t.every != 0 {
		return false
	}
	if t.funcs != nil {
		if _, ok := t.funcs[label]; !ok {
			return false
		}
	}
	return true
}

// appendUS appends d as microseconds with three decimals (nanosecond
// precision), clamping negatives to zero.
func appendUS(b []byte, d time.Duration) []byte {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}

// emit writes one comma-terminated event line built by f into scratch.
func (t *Tracer) emit(f func(b []byte) []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	t.buf = f(t.buf[:0])
	t.buf = append(t.buf, ',', '\n')
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = err
	}
	t.n++
}

func appendSpanHead(b []byte, name string, pid, tid int, ts, dur time.Duration) []byte {
	b = append(b, "{\"name\":"...)
	b = strconv.AppendQuote(b, name)
	b = append(b, ",\"ph\":\"X\",\"pid\":"...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, ",\"tid\":"...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, ",\"ts\":"...)
	b = appendUS(b, ts)
	b = append(b, ",\"dur\":"...)
	b = appendUS(b, dur)
	return b
}

func appendInstantHead(b []byte, name, scope string, pid, tid int, ts time.Duration) []byte {
	b = append(b, "{\"name\":"...)
	b = strconv.AppendQuote(b, name)
	b = append(b, ",\"ph\":\"i\",\"s\":"...)
	b = strconv.AppendQuote(b, scope)
	b = append(b, ",\"pid\":"...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, ",\"tid\":"...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, ",\"ts\":"...)
	b = appendUS(b, ts)
	return b
}

// TaskRecord emits one retired invocation's lifecycle spans on the
// server's fleet lane: "wait" (arrival→first run) and "exec" (first
// run→finish, cold-start latency broken out in args), or a "failed"
// instant for invocations that never ran. Subject to sampling.
func (t *Tracer) TaskRecord(server int, r metrics.Record) {
	if t == nil {
		return
	}
	label := r.Label()
	if !t.keepTask(r.ID, label) {
		return
	}
	if r.Failed {
		t.emit(func(b []byte) []byte {
			b = appendInstantHead(b, "failed", "t", 1, server, 0)
			b = append(b, ",\"cat\":\"task\",\"args\":{\"id\":"...)
			b = strconv.AppendUint(b, r.ID, 10)
			b = append(b, ",\"label\":"...)
			b = strconv.AppendQuote(b, label)
			b = append(b, "}}"...)
			return b
		})
		return
	}
	t.emit(func(b []byte) []byte {
		b = appendSpanHead(b, "wait", 1, server, r.Arrival, r.Response())
		b = append(b, ",\"cat\":\"task\",\"args\":{\"id\":"...)
		b = strconv.AppendUint(b, r.ID, 10)
		b = append(b, "}}"...)
		return b
	})
	t.emit(func(b []byte) []byte {
		b = appendSpanHead(b, "exec", 1, server, r.FirstRun, r.Execution())
		b = append(b, ",\"cat\":\"task\",\"args\":{\"id\":"...)
		b = strconv.AppendUint(b, r.ID, 10)
		b = append(b, ",\"label\":"...)
		b = strconv.AppendQuote(b, label)
		b = append(b, ",\"preempt\":"...)
		b = strconv.AppendInt(b, int64(r.Preemptions), 10)
		if r.ColdStart > 0 {
			b = append(b, ",\"cold_us\":"...)
			b = appendUS(b, r.ColdStart)
		}
		b = append(b, "}}"...)
		return b
	})
}

// TaskSet emits lifecycle spans for every record in s (materialized
// dataflow, where records arrive as an end-of-run set).
func (t *Tracer) TaskSet(server int, s *metrics.Set) {
	if t == nil {
		return
	}
	for _, r := range s.Records {
		t.TaskRecord(server, r)
	}
}

// TickMark emits an agent-tick instant on the server's fleet lane;
// elided counts the grid boundaries the horizon pump proved no-op since
// the previous fire. Never sampled out.
func (t *Tracer) TickMark(server int, at time.Duration, elided int64) {
	if t == nil {
		return
	}
	t.emit(func(b []byte) []byte {
		b = appendInstantHead(b, "tick", "t", 1, server, at)
		b = append(b, ",\"cat\":\"ghost\",\"args\":{\"elided\":"...)
		b = strconv.AppendInt(b, elided, 10)
		b = append(b, "}}"...)
		return b
	})
}

// ScaleEvent emits an autoscaler lifecycle instant (kind is launch/
// ready/drain/retire) on the server's fleet lane; active is the live
// fleet size after the event.
func (t *Tracer) ScaleEvent(kind string, server int, at time.Duration, active int) {
	if t == nil {
		return
	}
	t.emit(func(b []byte) []byte {
		b = appendInstantHead(b, "scale:"+kind, "p", 1, server, at)
		b = append(b, ",\"cat\":\"autoscale\",\"args\":{\"active\":"...)
		b = strconv.AppendInt(b, int64(active), 10)
		b = append(b, "}}"...)
		return b
	})
}

// FaultEvent emits a fault-plan instant (kind is crash/recover) on the
// server's fleet lane. Crash/recover marks come from the single-threaded
// routing layer, so the stream is identical at any shard count.
func (t *Tracer) FaultEvent(kind string, server int, at time.Duration) {
	if t == nil {
		return
	}
	t.emit(func(b []byte) []byte {
		b = appendInstantHead(b, "fault:"+kind, "p", 1, server, at)
		b = append(b, ",\"cat\":\"faults\"}"...)
		return b
	})
}

// Watermark emits a router watermark-broadcast instant (sharded
// lockstep replay); routed is the arrivals routed so far. Emitted by
// the router once per broadcast, so the stream is identical at any
// shard count.
func (t *Tracer) Watermark(at time.Duration, routed int64) {
	if t == nil {
		return
	}
	t.emit(func(b []byte) []byte {
		b = appendInstantHead(b, "watermark", "g", 0, 0, at)
		b = append(b, ",\"cat\":\"router\",\"args\":{\"routed\":"...)
		b = strconv.AppendInt(b, routed, 10)
		b = append(b, "}}"...)
		return b
	})
}

// Span emits a generic wall-clock span (CLI telemetry, e.g. per-
// experiment timing in faasbench).
func (t *Tracer) Span(name string, pid, tid int, start, dur time.Duration) {
	if t == nil {
		return
	}
	t.emit(func(b []byte) []byte {
		b = appendSpanHead(b, name, pid, tid, start, dur)
		b = append(b, ",\"cat\":\"wall\"}"...)
		return b
	})
}

// GhostProbe adapts the tracer to ghost.Config.Probe for one server's
// enclave. Returns a nil interface when the tracer is nil so the
// enclave's disabled path stays a plain nil check.
func (t *Tracer) GhostProbe(server int) ghost.Probe {
	if t == nil {
		return nil
	}
	return ghostProbe{t: t, server: server}
}

type ghostProbe struct {
	t      *Tracer
	server int
}

func (p ghostProbe) TickFired(now time.Duration, elided int64) {
	p.t.TickMark(p.server, now, elided)
}

// KernelProbe adapts the tracer to simkern.Config.Probe for one
// server's kernel, emitting per-core run segments. Returns nil unless
// TraceConfig.Segments was set.
func (t *Tracer) KernelProbe(server int) simkern.Probe {
	if t == nil || !t.segs {
		return nil
	}
	return kernProbe{t: t, server: server}
}

type kernProbe struct {
	t      *Tracer
	server int
}

func (p kernProbe) SegmentEnd(task *simkern.Task, core simkern.CoreID, start, end time.Duration, done bool) {
	id := uint64(task.ID)
	if !p.t.keepTask(id, task.Label) {
		return
	}
	if end < start {
		end = start
	}
	p.t.emit(func(b []byte) []byte {
		b = appendSpanHead(b, task.Label, 1000+p.server, int(core), start, end-start)
		b = append(b, ",\"cat\":\"core\",\"args\":{\"id\":"...)
		b = strconv.AppendUint(b, id, 10)
		if done {
			b = append(b, ",\"done\":1}}"...)
		} else {
			b = append(b, ",\"done\":0}}"...)
		}
		return b
	})
}

package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/metrics"
)

// traceDoc is the parsed Chrome trace-event JSON object format.
type traceDoc struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

func parseTrace(t *testing.T, buf *bytes.Buffer) traceDoc {
	t.Helper()
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestTracerDocumentShape(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TraceConfig{})
	tr.TaskRecord(2, metrics.Record{
		ID: 4, FibN: 36, Arrival: time.Millisecond,
		FirstRun: 2 * time.Millisecond, Finish: 5 * time.Millisecond,
	})
	tr.TickMark(1, 7*time.Millisecond, 3)
	tr.Watermark(10*time.Millisecond, 42)
	tr.ScaleEvent("launch", 0, 0, 1)
	tr.Span("exp", 99, 0, 0, time.Second)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Events(); got != 6 { // wait+exec spans, tick, watermark, scale, wall span
		t.Fatalf("Events = %d, want 6", got)
	}
	doc := parseTrace(t, &buf)
	// +1 for the fixed metadata footer event.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("traceEvents len = %d, want 7", len(doc.TraceEvents))
	}
	byName := map[string]map[string]any{}
	for _, ev := range doc.TraceEvents {
		byName[ev["name"].(string)] = ev
	}
	wait := byName["wait"]
	// 1 ms arrival → ts 1000 µs; response (first run − arrival) 1 ms →
	// dur 1000 µs.
	if wait["ts"].(float64) != 1000 || wait["dur"].(float64) != 1000 {
		t.Errorf("wait span ts/dur = %v/%v, want 1000/1000", wait["ts"], wait["dur"])
	}
	exec := byName["exec"]
	// 2 ms first run → ts 2000 µs; execution (finish − first run) 3 ms →
	// dur 3000 µs.
	if exec["ts"].(float64) != 2000 || exec["dur"].(float64) != 3000 {
		t.Errorf("exec span ts/dur = %v/%v, want 2000/3000", exec["ts"], exec["dur"])
	}
	if wait["pid"].(float64) != 1 || wait["tid"].(float64) != 2 {
		t.Errorf("wait span pid/tid = %v/%v, want 1/2", wait["pid"], wait["tid"])
	}
	if tick := byName["tick"]; tick["args"].(map[string]any)["elided"].(float64) != 3 {
		t.Errorf("tick elided = %v, want 3", tick["args"])
	}
	if wm := byName["watermark"]; wm["pid"].(float64) != 0 || wm["args"].(map[string]any)["routed"].(float64) != 42 {
		t.Errorf("watermark = %v", wm)
	}
	if _, ok := byName["scale:launch"]; !ok {
		t.Error("missing scale:launch event")
	}
	if _, ok := byName["process_name"]; !ok {
		t.Error("missing metadata footer event")
	}
}

func TestTracerNanosecondPrecision(t *testing.T) {
	b := appendUS(nil, 1234567*time.Nanosecond)
	if string(b) != "1234.567" {
		t.Errorf("appendUS(1234567ns) = %q, want 1234.567", b)
	}
	if b := appendUS(nil, -time.Second); string(b) != "0.000" {
		t.Errorf("appendUS(negative) = %q, want 0.000", b)
	}
}

func TestTracerSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TraceConfig{Every: 3, Funcs: []string{"fib(36)"}})
	for id := uint64(0); id < 10; id++ {
		tr.TaskRecord(0, metrics.Record{ID: id, FibN: 36, Finish: time.Millisecond})
		tr.TaskRecord(0, metrics.Record{ID: id, FibN: 37, Finish: time.Millisecond})
	}
	// Marks are never sampled out.
	tr.TickMark(0, 0, 0)
	tr.Watermark(0, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// IDs 0,3,6,9 with label "fib(36)" → 4 tasks × 2 spans + 2 marks.
	if got := tr.Events(); got != 10 {
		t.Fatalf("Events = %d, want 10", got)
	}
	if strings.Contains(buf.String(), "fib(37)") {
		t.Error("filtered label leaked into the trace")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.TaskRecord(0, metrics.Record{})
	tr.TickMark(0, 0, 0)
	tr.Watermark(0, 0)
	tr.ScaleEvent("launch", 0, 0, 0)
	tr.Span("x", 0, 0, 0, 0)
	if tr.GhostProbe(0) != nil {
		t.Error("nil tracer GhostProbe should be nil")
	}
	if tr.KernelProbe(0) != nil {
		t.Error("nil tracer KernelProbe should be nil")
	}
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
	if tr.Events() != 0 || tr.Err() != nil {
		t.Error("nil tracer should report zero events and no error")
	}

	// Segments off → no kernel probe even on a live tracer (keeps the
	// kernel's probe check a plain nil test).
	live := NewTracer(&bytes.Buffer{}, TraceConfig{})
	if live.KernelProbe(0) != nil {
		t.Error("KernelProbe should be nil with Segments off")
	}
	live.Close()
}

func TestTracerFailedRecord(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TraceConfig{})
	tr.TaskRecord(0, metrics.Record{ID: 1, FibN: 36, Failed: true})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	doc := parseTrace(t, &buf)
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0]["name"] != "failed" {
		t.Fatalf("failed record events = %v", doc.TraceEvents)
	}
}

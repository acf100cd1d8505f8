package faults

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
)

// recordSink keeps every record pushed into it.
type recordSink struct{ recs []metrics.Record }

func (s *recordSink) Push(r metrics.Record) { s.recs = append(s.recs, r) }

// TestGiveUpRecordPreemptionsChecked: the give-up record carries the
// last attempt's preemption count as an int32; a count that does not fit
// panics, naming the task, instead of wrapping. The count is set through
// the task's test hook rather than by running 2³¹ preemptions.
func TestGiveUpRecordPreemptionsChecked(t *testing.T) {
	for _, n := range []int{math.MaxInt32, math.MaxInt32 + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			m := NewTerminalMachine(Config{}, 0, -1) // one attempt: the first kill gives up
			sink := &recordSink{}
			m.WrapSink(sink)
			task := &simkern.Task{ID: 77, Kind: simkern.KindFunction, FibN: 36, MemMB: 128}
			m.Note(task, time.Second, 0)
			task.SetPreemptionsForTest(n)
			msg := func() (msg string) {
				defer func() {
					if p := recover(); p != nil {
						msg = fmt.Sprint(p)
					}
				}()
				m.retryOrGiveUp(m.st[task.ID], time.Second)
				return ""
			}()
			if n > math.MaxInt32 {
				if !strings.Contains(msg, "task 77") {
					t.Fatalf("give-up with %d preemptions: panic %q, want one naming task 77", n, msg)
				}
				return
			}
			if msg != "" {
				t.Fatalf("give-up with %d preemptions panicked: %s", n, msg)
			}
			if len(sink.recs) != 1 {
				t.Fatalf("%d records, want 1 give-up record", len(sink.recs))
			}
			r := sink.recs[0]
			if !r.GiveUp || int(r.Preemptions) != n || r.Label() != "fib(36)" {
				t.Errorf("give-up record %+v (label %q), want GiveUp with %d preemptions, label fib(36)", r, r.Label(), n)
			}
		})
	}
}

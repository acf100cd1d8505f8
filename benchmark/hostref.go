package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"time"
)

// The benchmark's wall-time metrics are stated at a fixed host speed. The
// machine they run on is shared: for minutes at a time the rest of the
// host slows every pass, CPU time included, by 10–50%, which no choice of
// statistic within a measurement removes. A measuring child therefore
// runs a fixed reference workload before and after every pass, and scales
// the pass's times by how much slower than nominal the host ran the
// reference around it. The reference is the benchmark's own code, not the
// simulator's, so a change to the simulator moves the scaled times exactly
// as much as the raw ones.

const (
	// refNominalS is the reference workload's median wall time on the
	// host the bounds were calibrated on (README.md, Calibration). Scaled
	// times are times on a host that runs the reference in refNominalS.
	refNominalS = 0.44
	// refEvents is the reference workload's size: ~0.44 s on that host.
	refEvents = 500_000
)

// refEvent is one pending event of the reference workload; its payload is
// a fresh allocation, as a simulator's task records are.
type refEvent struct {
	at      int64
	payload *[4]int64
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refSink keeps the reference's result live, so the compiler cannot drop
// the work.
var refSink int

// hostReference runs the reference workload once, from a collected heap,
// and returns its wall time in seconds. The workload is a discrete-event
// loop like the simulator's kernels: a binary-heap event queue of 128k
// entries, a 256k-entry map updated per event, and one small allocation
// per event, so the garbage collector runs as it does in a pass. Its
// input is fixed, so it does the same work on every call.
func hostReference() float64 {
	runtime.GC()
	r := rand.New(rand.NewSource(1))
	q := make(refQueue, 1<<17)
	for i := range q {
		q[i].at = r.Int63n(1 << 30)
	}
	heap.Init(&q)
	seen := make(map[int64]int64, 1<<18)
	start := time.Now()
	for range refEvents {
		e := heap.Pop(&q).(refEvent)
		k := e.at & (1<<18 - 1)
		seen[k] += e.at
		heap.Push(&q, refEvent{at: e.at + r.Int63n(1<<20), payload: &[4]int64{k, seen[k]}})
	}
	d := time.Since(start).Seconds()
	refSink += len(seen)
	return d
}

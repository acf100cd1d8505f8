package metrics

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/stats"
)

func rec(arrival, firstRun, finish time.Duration) Record {
	return Record{Arrival: arrival, FirstRun: firstRun, Finish: finish, MemMB: 128}
}

func TestMetricIdentities(t *testing.T) {
	r := rec(10*time.Millisecond, 30*time.Millisecond, 100*time.Millisecond)
	if r.Response() != 20*time.Millisecond {
		t.Errorf("Response = %v", r.Response())
	}
	if r.Execution() != 70*time.Millisecond {
		t.Errorf("Execution = %v", r.Execution())
	}
	if r.Turnaround() != 90*time.Millisecond {
		t.Errorf("Turnaround = %v", r.Turnaround())
	}
}

// Property (paper §II-B): turnaround == response + execution, always.
func TestTurnaroundIdentityProperty(t *testing.T) {
	f := func(a, fr, fin uint32) bool {
		arrival := time.Duration(a)
		firstRun := arrival + time.Duration(fr)
		finish := firstRun + time.Duration(fin)
		r := rec(arrival, firstRun, finish)
		return r.Turnaround() == r.Response()+r.Execution()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetCDFAndP99(t *testing.T) {
	s := Set{}
	for i := 1; i <= 100; i++ {
		s.Records = append(s.Records, rec(0, 0, time.Duration(i)*time.Millisecond))
	}
	c, err := s.CDF(Execution)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 100 {
		t.Errorf("CDF N = %d", c.N())
	}
	p99, err := s.P99(Execution)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p99-0.099) > 1e-9 { // 99ms in seconds
		t.Errorf("P99 = %v s, want 0.099", p99)
	}
}

// TestSetReadersCopyNoRecords: Set.CDF reads the records in place and
// hands its float slice of values to stats.NewCDF, which sorts it in
// place, so that slice is its one allocation; a copy of the completed
// records, or of the values, would be a second. TotalExecution allocates
// nothing.
func TestSetReadersCopyNoRecords(t *testing.T) {
	s := Set{Records: sinkRecords(1000)}
	done := len(s.Records) - s.FailedCount()
	var c stats.CDF
	if allocs := testing.AllocsPerRun(20, func() { c, _ = s.CDF(Response) }); allocs != 1 {
		t.Errorf("Set.CDF allocates %v times, want 1 (the values)", allocs)
	}
	if c.N() != done {
		t.Errorf("CDF over %d values, want the %d completed records", c.N(), done)
	}
	var sum time.Duration
	if allocs := testing.AllocsPerRun(20, func() { sum = s.TotalExecution() }); allocs != 0 {
		t.Errorf("TotalExecution allocates %v times, want 0", allocs)
	}
	var want time.Duration
	for _, r := range s.Completed() {
		want += r.Execution()
	}
	if sum != want {
		t.Errorf("TotalExecution = %v, want %v", sum, want)
	}
}

func TestFailedRecordsExcluded(t *testing.T) {
	s := Set{Records: []Record{
		rec(0, 0, 10*time.Millisecond),
		{Failed: true, MemMB: 128},
	}}
	if len(s.Completed()) != 1 {
		t.Errorf("Completed = %d", len(s.Completed()))
	}
	if s.FailedCount() != 1 {
		t.Errorf("FailedCount = %d", s.FailedCount())
	}
	if s.TotalExecution() != 10*time.Millisecond {
		t.Errorf("TotalExecution = %v", s.TotalExecution())
	}
	// Cost must ignore failed records too.
	tariff := pricing.Default()
	if got, want := s.Cost(tariff), tariff.InvocationCost(10*time.Millisecond, 128); math.Abs(got-want) > 1e-15 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestCostAtUniformMemoryScalesWithMemory(t *testing.T) {
	s := Set{Records: []Record{rec(0, 0, 100*time.Millisecond)}}
	tariff := pricing.Default()
	c128 := s.CostAtUniformMemory(tariff, 128)
	c1024 := s.CostAtUniformMemory(tariff, 1024)
	// Compute part scales 8x; request charge constant.
	wantRatio := (tariff.ComputeCost(100*time.Millisecond, 1024) + tariff.PerRequestUSD) /
		(tariff.ComputeCost(100*time.Millisecond, 128) + tariff.PerRequestUSD)
	if math.Abs(c1024/c128-wantRatio) > 1e-9 {
		t.Errorf("cost ratio = %v, want %v", c1024/c128, wantRatio)
	}
}

func TestCollectFromKernel(t *testing.T) {
	k, err := simkern.New(simkern.Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := &fifoHandler{k: k}
	k.SetHandler(h)
	tasks := []*simkern.Task{
		{ID: 1, Kind: simkern.KindFunction, Work: 10 * time.Millisecond, MemMB: 256, FibN: 36},
		{ID: 2, Kind: simkern.KindVMM, Work: 5 * time.Millisecond, Arrival: time.Millisecond},
		{ID: 3, Kind: simkern.KindVCPU, Work: 8 * time.Millisecond, Arrival: 2 * time.Millisecond, MemMB: 512},
	}
	for _, task := range tasks {
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	s := Collect(k)
	// VMM thread excluded: function + vcpu only.
	if len(s.Records) != 2 {
		t.Fatalf("collected %d records, want 2", len(s.Records))
	}
	if s.Records[0].MemMB != 256 || s.Records[0].FibN != 36 {
		t.Errorf("record fields not copied: %+v", s.Records[0])
	}
	if s.Summary() == "" {
		t.Error("empty summary")
	}
}

// fifoHandler is a minimal dispatcher for Collect tests.
type fifoHandler struct {
	k *simkern.Kernel
	q []*simkern.Task
}

func (h *fifoHandler) OnTaskArrived(t *simkern.Task) {
	h.q = append(h.q, t)
	h.pump()
}
func (h *fifoHandler) OnTaskFinished(*simkern.Task, simkern.CoreID) { h.pump() }
func (h *fifoHandler) pump() {
	if len(h.q) == 0 || h.k.RunningTask(0) != nil {
		return
	}
	t := h.q[0]
	h.q = h.q[1:]
	if err := h.k.RunTask(0, t); err != nil {
		panic(err)
	}
}

func TestPreemptionsPerCoreAndGroupUtil(t *testing.T) {
	k, err := simkern.New(simkern.Config{
		Cores:       2,
		SampleEvery: 5 * time.Millisecond,
		RecordUtil:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &fifoHandler{k: k}
	k.SetHandler(h)
	if err := k.AddTask(&simkern.Task{ID: 1, Kind: simkern.KindFunction, Work: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	pp := PreemptionsPerCore(k)
	if len(pp) != 2 || pp[0] != 0 {
		t.Errorf("PreemptionsPerCore = %v", pp)
	}
	g := GroupUtil(k, []simkern.CoreID{0, 1}, "both")
	if g.Name() != "both" || g.Len() == 0 {
		t.Fatalf("GroupUtil empty")
	}
	// Core 0 fully busy, core 1 idle → group average 0.5 in the first
	// windows.
	if v := g.Samples()[0].V; math.Abs(v-0.5) > 1e-9 {
		t.Errorf("first group util = %v, want 0.5", v)
	}
	if empty := GroupUtil(k, nil, "none"); empty.Len() != 0 {
		t.Error("GroupUtil(nil cores) should be empty")
	}
}

func TestMetricString(t *testing.T) {
	for _, m := range []Metric{Execution, Response, Turnaround, Metric(9)} {
		if m.String() == "" {
			t.Errorf("Metric(%d) renders empty", int(m))
		}
	}
}

func TestCDFEmptyErrors(t *testing.T) {
	s := Set{}
	if _, err := s.CDF(Execution); err == nil {
		t.Error("CDF over empty set should fail")
	}
	if _, err := s.P99(Execution); err == nil {
		t.Error("P99 over empty set should fail")
	}
}

// TestWriteDigestEncoding pins the golden digests' record line byte for
// byte: the sampler and elastic goldens hash exactly these bytes.
func TestWriteDigestEncoding(t *testing.T) {
	var b strings.Builder
	WriteDigest(&b, Record{
		ID: 7, Arrival: 1500 * time.Millisecond, FirstRun: 2 * time.Second,
		Finish: 2*time.Second + 250*time.Microsecond, CPU: 250 * time.Microsecond, Preemptions: 3,
		MemMB: 128, FibN: 30, ColdStart: 0, Failed: true, Attempts: 2, GiveUp: true, Wasted: time.Minute,
	})
	const want = "{ID:7 Label:fib(30) Arrival:1.5s FirstRun:2s Finish:2.00025s CPU:250µs Preemptions:3 MemMB:128 FibN:30 ColdStart:0s Failed:true Attempts:2 GiveUp:true Wasted:1m0s}\n"
	if got := b.String(); got != want {
		t.Errorf("encoding\n got %q\nwant %q", got, want)
	}
}

// TestWriteDigestInt32Extremes: the int32 fields (Preemptions, MemMB,
// FibN, Attempts) at either end of their range encode exactly as the int
// fields they replaced did, so narrowing them moved no golden digest;
// the label is derived from FibN and VM at any value of either.
func TestWriteDigestInt32Extremes(t *testing.T) {
	var b strings.Builder
	WriteDigest(&b, Record{ID: 1, Preemptions: math.MaxInt32, MemMB: math.MaxInt32, FibN: math.MaxInt32, Attempts: math.MaxInt32})
	WriteDigest(&b, Record{ID: 2, Preemptions: math.MinInt32, MemMB: math.MinInt32, FibN: math.MinInt32, Attempts: math.MinInt32})
	WriteDigest(&b, Record{ID: 3, FibN: 36, VM: math.MaxInt32})
	const want = "{ID:1 Label:fib(2147483647) Arrival:0s FirstRun:0s Finish:0s CPU:0s Preemptions:2147483647 MemMB:2147483647 FibN:2147483647 ColdStart:0s Failed:false Attempts:2147483647 GiveUp:false Wasted:0s}\n" +
		"{ID:2 Label:fib(-2147483648) Arrival:0s FirstRun:0s Finish:0s CPU:0s Preemptions:-2147483648 MemMB:-2147483648 FibN:-2147483648 ColdStart:0s Failed:false Attempts:-2147483648 GiveUp:false Wasted:0s}\n" +
		"{ID:3 Label:vm2147483646-fib(36) Arrival:0s FirstRun:0s Finish:0s CPU:0s Preemptions:0 MemMB:0 FibN:36 ColdStart:0s Failed:false Attempts:0 GiveUp:false Wasted:0s}\n"
	if got := b.String(); got != want {
		t.Errorf("encoding\n got %q\nwant %q", got, want)
	}
}

// TestRecordLayout pins the exact fleets' per-invocation record at 80
// bytes on 64-bit platforms: the eight-byte fields, then the 32-bit ones,
// then the two bools side by side. It also fails on any field that holds
// a pointer (a string, slice, map, interface, channel, function or
// pointer, nested or not): a pointer-free record makes the exact fleet's
// slot array a no-scan allocation the garbage collector never walks.
func TestRecordLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit platforms")
	}
	var r Record
	if got := unsafe.Sizeof(r); got != 80 {
		t.Errorf("unsafe.Sizeof(Record{}) = %d, want 80", got)
	}
	if unsafe.Offsetof(r.GiveUp) != unsafe.Offsetof(r.Failed)+1 {
		t.Errorf("Failed at %d and GiveUp at %d are not side by side", unsafe.Offsetof(r.Failed), unsafe.Offsetof(r.GiveUp))
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("Record%s is a %s: the record must hold no pointers", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("", reflect.TypeOf(r))
}

// panicMessage runs f and returns what it panicked with, or "".
func panicMessage(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// TestFromTaskNarrowsChecked: FromTask narrows the preemption count and
// a vCPU task's microVM index into int32 fields, keeps every value that
// fits, and panics, naming the task, on one that does not. The counts
// are set through the task's test hook, not by running 2³¹ preemptions.
func TestFromTaskNarrowsChecked(t *testing.T) {
	fn := &simkern.Task{ID: 42, Kind: simkern.KindFunction, FibN: 36}
	fn.SetPreemptionsForTest(math.MaxInt32)
	if r := FromTask(fn); r.Preemptions != math.MaxInt32 || r.VM != 0 {
		t.Errorf("FromTask at the int32 maximum: Preemptions %d VM %d, want %d and 0", r.Preemptions, r.VM, math.MaxInt32)
	}
	fn.SetPreemptionsForTest(math.MaxInt32 + 1)
	if msg := panicMessage(func() { FromTask(fn) }); !strings.Contains(msg, "task 42") {
		t.Errorf("FromTask with %d preemptions: panic %q, want one naming task 42", math.MaxInt32+1, msg)
	}

	vcpu := &simkern.Task{ID: 9, Kind: simkern.KindVCPU, FibN: 36, VMID: math.MaxInt32 - 1}
	if r := FromTask(vcpu); r.VM != math.MaxInt32 {
		t.Errorf("FromTask of microVM %d: VM %d, want %d", vcpu.VMID, r.VM, math.MaxInt32)
	}
	for _, vm := range []int{math.MaxInt32, -1} {
		vcpu.VMID = vm
		if msg := panicMessage(func() { FromTask(vcpu) }); !strings.Contains(msg, "task 9") {
			t.Errorf("FromTask of microVM %d: panic %q, want one naming task 9", vm, msg)
		}
	}
}

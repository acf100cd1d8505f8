// Scaling policies: the rule that turns the dispatcher's causal load view
// into launch/drain decisions. Both shipped policies reduce to one scalar
// signal compared against an up/down threshold pair (hysteresis), with
// cooldowns damping flapping; they differ only in what the signal counts.

package autoscale

import (
	"fmt"
	"math"
	"time"
)

// ScalePolicy names a fleet scaling policy.
type ScalePolicy string

// Available scaling policies.
const (
	// PolicyTargetUtilization scales on the fraction of provisioned lanes
	// (cores) that are busy under the causal lane model: signal =
	// busy lanes / (provisioned servers × cores), in [0, 1]. Booting
	// servers count as provisioned capacity, so in-flight launches
	// suppress further launches. This is the classic CPU-target
	// autoscaler; it saturates at 1 under backlog.
	PolicyTargetUtilization ScalePolicy = "target-util"
	// PolicyQueueDepth scales on dispatched-but-unfinished invocations per
	// provisioned lane: signal = in-flight invocations / (provisioned
	// servers × cores), unbounded above. Unlike utilization it keeps
	// growing with backlog, so it reacts harder to overload and is the
	// better policy when queueing (p99 response) is what costs money.
	PolicyQueueDepth ScalePolicy = "queue-depth"
)

// Policies lists every scaling policy in stable order.
func Policies() []ScalePolicy {
	return []ScalePolicy{PolicyTargetUtilization, PolicyQueueDepth}
}

// Default thresholds and damping, chosen so the two policies are
// comparable out of the box: target-util launches when ≥7/8 of lanes are
// busy and drains below 30% busy; queue-depth launches at ≥2 in-flight
// invocations per lane and drains below ½ per lane. Up/Down pairs keep a
// wide hysteresis band — the ratio matters more than the absolute values,
// because a launch or drain itself moves the signal by ~1/provisioned.
const (
	DefaultUtilUpThreshold    = 0.875
	DefaultUtilDownThreshold  = 0.30
	DefaultDepthUpThreshold   = 2.0
	DefaultDepthDownThreshold = 0.5

	// DefaultSpinUp is the provisioning latency: a launched server serves
	// its first invocation no earlier than launch + spin-up (a fresh VM
	// boot plus runtime warm-up, on the order of half a minute).
	DefaultSpinUp = 30 * time.Second
	// DefaultUpCooldown spaces consecutive launches.
	DefaultUpCooldown = 10 * time.Second
	// DefaultDownCooldown spaces consecutive drains; it is deliberately
	// longer than the up cooldown (scaling down too eagerly costs latency,
	// scaling up too eagerly only costs server-seconds).
	DefaultDownCooldown = 60 * time.Second
)

// thresholds resolves the configured threshold pair against the policy
// defaults and validates the hysteresis ordering.
func (p ScalePolicy) thresholds(up, down float64) (float64, float64, error) {
	switch p {
	case PolicyTargetUtilization:
		if up == 0 {
			up = DefaultUtilUpThreshold
		}
		if down == 0 {
			down = DefaultUtilDownThreshold
		}
		if up > 1 {
			return 0, 0, fmt.Errorf("autoscale: %s UpThreshold %v exceeds 1 (it is a lane fraction)", p, up)
		}
	case PolicyQueueDepth:
		if up == 0 {
			up = DefaultDepthUpThreshold
		}
		if down == 0 {
			down = DefaultDepthDownThreshold
		}
	default:
		return 0, 0, fmt.Errorf("autoscale: unknown scaling policy %q (have %v)", p, Policies())
	}
	if math.IsNaN(up) || math.IsNaN(down) || math.IsInf(up, 0) || math.IsInf(down, 0) {
		return 0, 0, fmt.Errorf("autoscale: %s UpThreshold %v and DownThreshold %v must be finite", p, up, down)
	}
	if up <= 0 || down <= 0 {
		return 0, 0, fmt.Errorf("autoscale: thresholds must be positive (up %v, down %v)", up, down)
	}
	if down >= up {
		return 0, 0, fmt.Errorf("autoscale: DownThreshold %v must be below UpThreshold %v (hysteresis)", down, up)
	}
	return up, down, nil
}

// inflight tracks the dispatcher's causal count of booked-but-unfinished
// invocations per server: a min-heap of booked completion instants, popped
// as the controller's arrival clock passes them. Only the queue-depth
// policy pays for this bookkeeping.
type inflight struct {
	byServer map[int]*durHeap
	total    int
}

func newInflight() *inflight { return &inflight{byServer: make(map[int]*durHeap)} }

// book records an invocation booked on server s until finish.
func (f *inflight) book(s int, finish time.Duration) {
	h, ok := f.byServer[s]
	if !ok {
		h = &durHeap{}
		f.byServer[s] = h
	}
	h.push(finish)
	f.total++
}

// advance retires every booking that completes at or before now.
func (f *inflight) advance(now time.Duration) {
	for _, h := range f.byServer {
		for h.len() > 0 && h.min() <= now {
			h.pop()
			f.total--
		}
	}
}

// drop forgets server s entirely (it was drained; its remaining bookings
// no longer describe serving capacity).
func (f *inflight) drop(s int) {
	if h, ok := f.byServer[s]; ok {
		f.total -= h.len()
		delete(f.byServer, s)
	}
}

// durHeap is a minimal binary min-heap of instants (no interface
// boxing; the controller touches it once per arrival).
type durHeap struct{ a []time.Duration }

func (h *durHeap) len() int           { return len(h.a) }
func (h *durHeap) min() time.Duration { return h.a[0] }

func (h *durHeap) push(v time.Duration) {
	h.a = append(h.a, v)
	for i := len(h.a) - 1; i > 0; {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *durHeap) pop() time.Duration {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return v
}

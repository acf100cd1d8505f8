package cluster

import (
	"testing"
	"unsafe"

	"github.com/faassched/faassched/internal/workload"
)

// TestArrivalLayout pins the sizes of every copy an arrival takes on its
// way from the workload source to a server's pending queue, on 64-bit
// platforms: the invocation (two durations and four int32s), the router's
// Routed message, the handoff batch entry that carries it, and the
// pending chunk of pendLen of them. metrics.TestRecordLayout pins the
// record the arrival ends as.
func TestArrivalLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit platforms")
	}
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"workload.Invocation", unsafe.Sizeof(workload.Invocation{}), 32},
		{"Routed", unsafe.Sizeof(Routed{}), 56},
		{"shardMsg", unsafe.Sizeof(shardMsg{}), 88},
		{"pendChunk", unsafe.Sizeof(pendChunk{}), 1808},
	} {
		if tc.got != tc.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

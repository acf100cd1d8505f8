package chunk

import (
	"reflect"
	"testing"
)

// TestLogKeepsPushOrder pushes across every chunk-size step (16, 32, ...,
// 1,024) and several capped chunks, checking after each push that Len
// counts it and that the chunks grow as documented; at the end Flatten
// and Chunks return the values in push order.
func TestLogKeepsPushOrder(t *testing.T) {
	const n = 16 + 32 + 64 + 128 + 256 + 512 + 3*1024 + 5
	var l Log[int]
	if l.Flatten() != nil || l.Len() != 0 {
		t.Fatal("a zero log is not empty")
	}
	for i := 0; i < n; i++ {
		l.Push(i)
		if l.Len() != i+1 {
			t.Fatalf("after %d pushes Len is %d", i+1, l.Len())
		}
	}
	var sizes []int
	var got []int
	for c := range l.Chunks() {
		sizes = append(sizes, cap(c))
		got = append(got, c...)
	}
	wantSizes := []int{16, 32, 64, 128, 256, 512, 1024, 1024, 1024, 1024}
	if !reflect.DeepEqual(sizes, wantSizes) {
		t.Errorf("chunk capacities %v, want %v", sizes, wantSizes)
	}
	flat := l.Flatten()
	if len(flat) != n || cap(flat) != n {
		t.Fatalf("Flatten: len %d cap %d, want %d", len(flat), cap(flat), n)
	}
	for i := range flat {
		if flat[i] != i || got[i] != i {
			t.Fatalf("value %d: Flatten %d, Chunks %d", i, flat[i], got[i])
		}
	}
}

// TestLogNeverMovesValues: a value's address is fixed from its push on,
// however many pushes follow — no push copies what the log holds.
func TestLogNeverMovesValues(t *testing.T) {
	var l Log[[4]int64]
	var first *[4]int64
	for i := 0; i < 5000; i++ {
		l.Push([4]int64{int64(i)})
		if i == 0 {
			for c := range l.Chunks() {
				first = &c[0]
			}
		}
	}
	for c := range l.Chunks() {
		if &c[0] != first {
			t.Fatal("the first value moved")
		}
		if c[0][0] != 0 {
			t.Fatalf("the first value reads %d", c[0][0])
		}
		break
	}
}

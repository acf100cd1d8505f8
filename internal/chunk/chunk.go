// Package chunk provides Log, an append-only sequence kept in chunks.
// The elastic fleet logs its routing decisions this way, since it does
// not know their number up front, and metrics.Store keeps a machine's
// records so: a growing slice copies all it holds each time it regrows
// (by 1.25× once large), while a Log never moves a value it already
// holds.
package chunk

import "iter"

// Chunk geometry: the first chunk holds firstChunk values and each next
// one twice the last, up to maxChunk. A log of a few values wastes little
// space, and a long one costs one allocation per maxChunk values.
const (
	firstChunk = 16
	maxChunk   = 1024
)

// Log is an append-only sequence of values in push order. The zero value
// is an empty log ready for use. It is not safe for concurrent use.
type Log[T any] struct {
	full [][]T // filled chunks, in push order
	tail []T   // the chunk being filled; nil before the first push
	done int   // values in full
}

// Push appends v.
func (l *Log[T]) Push(v T) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, v)
}

// grow retires the filled tail chunk and opens the next, twice its size
// up to maxChunk.
func (l *Log[T]) grow() {
	size := firstChunk
	if l.tail != nil {
		l.full = append(l.full, l.tail)
		l.done += len(l.tail)
		size = min(2*cap(l.tail), maxChunk)
	}
	l.tail = make([]T, 0, size)
}

// Len returns the number of values pushed.
func (l *Log[T]) Len() int { return l.done + len(l.tail) }

// Chunks yields the log's chunks in push order; together they hold every
// value pushed, in push order. The chunks are the log's own storage.
func (l *Log[T]) Chunks() iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		for _, c := range l.full {
			if !yield(c) {
				return
			}
		}
		if len(l.tail) > 0 {
			yield(l.tail)
		}
	}
}

// Flatten returns every value in push order in one slice of exactly Len
// values, or nil when the log is empty. The log is unchanged.
func (l *Log[T]) Flatten() []T {
	n := l.Len()
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for c := range l.Chunks() {
		out = append(out, c...)
	}
	return out
}

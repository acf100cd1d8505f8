// Fleet-sized per-server arrays in pages of 64 servers (DESIGN.md §12).
// A fixed fleet of 100,000 servers may route a stream onto a few hundred
// of them, so routing state indexed by server lives in pages allocated at
// the first write to one of their servers: a server on an unallocated
// page reads as the zero value, and an untouched fleet costs one
// directory word per 64 servers.

package cluster

// pageShift is log2 of pageLen, the servers a page holds.
const (
	pageShift = 6
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

// pageCount is how many pages hold servers [0, n).
func pageCount(n int) int { return (n + pageMask) >> pageShift }

// pages is a per-server array of T in pages of pageLen servers.
type pages[T any] struct {
	dir []*[pageLen]T
}

func newPages[T any](servers int) pages[T] {
	return pages[T]{dir: make([]*[pageLen]T, pageCount(servers))}
}

// get returns server s's value, the zero T while its page is unallocated.
func (p *pages[T]) get(s int) T {
	if pg := p.dir[s>>pageShift]; pg != nil {
		return pg[s&pageMask]
	}
	var zero T
	return zero
}

// peek returns server s's slot, or nil while its page is unallocated.
func (p *pages[T]) peek(s int) *T {
	if pg := p.dir[s>>pageShift]; pg != nil {
		return &pg[s&pageMask]
	}
	return nil
}

// at returns server s's slot for writing, allocating its page.
func (p *pages[T]) at(s int) *T {
	pg := p.dir[s>>pageShift]
	if pg == nil {
		pg = new([pageLen]T)
		p.dir[s>>pageShift] = pg
	}
	return &pg[s&pageMask]
}

// grow makes room for servers [0, n).
func (p *pages[T]) grow(n int) {
	for len(p.dir) < pageCount(n) {
		p.dir = append(p.dir, nil)
	}
}

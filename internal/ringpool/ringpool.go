// Package ringpool is the bounded free list behind the buffers a run
// sets up and a sweep would otherwise set up again: the tracer's
// per-track record rings and the slices it flattens them into
// (internal/trace), the monitor's circular event queue
// (internal/overlap) and the offline analysis' scratch
// (internal/profile). Each of those packages keeps package-private
// Lists; a buffer enters one at the point where it already becomes
// garbage and the next run draws it instead of a zeroed allocation.
package ringpool

import (
	"sync"
	"unsafe"
)

// MaxBytes bounds what one List retains. A pass over the scenario
// corpus leaves 6.9 MB of trace rings and 18 MB of flattened slices
// listed; the bound is what keeps a 1024-rank run from pinning all
// 200 MB of its monitor queues for the rest of the process.
const MaxBytes = 32 << 20

// List is a free list of []T keyed by length, safe for concurrent use.
// The zero value is ready. Buffers are handed out as they were put in —
// not cleared — so a caller must never read an element it has not
// written since Get.
type List[T any] struct {
	mu    sync.Mutex
	free  map[int][][]T
	bytes int
}

// Get returns a buffer of length n: a recycled one of exactly that
// length when the list holds one, a fresh one otherwise.
func (l *List[T]) Get(n int) []T {
	l.mu.Lock()
	bufs := l.free[n]
	if len(bufs) == 0 {
		l.mu.Unlock()
		return make([]T, n)
	}
	b := bufs[len(bufs)-1]
	bufs[len(bufs)-1] = nil
	l.free[n] = bufs[:len(bufs)-1]
	l.bytes -= size(b)
	l.mu.Unlock()
	return b
}

// Put offers b for reuse. The caller must hold no other reference to
// it. A buffer that would take the list past MaxBytes is dropped.
func (l *List[T]) Put(b []T) {
	if len(b) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bytes+size(b) > MaxBytes {
		return
	}
	if l.free == nil {
		l.free = make(map[int][][]T)
	}
	l.free[len(b)] = append(l.free[len(b)], b)
	l.bytes += size(b)
}

// Bytes returns what the list currently retains.
func (l *List[T]) Bytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

func size[T any](b []T) int {
	var z T
	return len(b) * int(unsafe.Sizeof(z))
}

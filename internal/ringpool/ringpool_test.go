package ringpool

import (
	"sync"
	"testing"
)

func TestGetReturnsWhatWasPut(t *testing.T) {
	var l List[int64]
	a := l.Get(16)
	if len(a) != 16 || l.Bytes() != 0 {
		t.Fatalf("cold Get: len %d, list holds %d bytes", len(a), l.Bytes())
	}
	a[3] = 7
	l.Put(a)
	if l.Bytes() != 16*8 {
		t.Fatalf("list holds %d bytes after one 16-element Put, want 128", l.Bytes())
	}
	// Only a buffer of exactly the asked length comes back.
	if b := l.Get(32); len(b) != 32 || &b[0] == &a[0] {
		t.Fatalf("Get(32) reused the 16-element buffer (len %d)", len(b))
	}
	b := l.Get(16)
	if &b[0] != &a[0] || b[3] != 7 {
		t.Fatal("Get(16) did not hand back the listed buffer as it was")
	}
	if l.Bytes() != 0 {
		t.Fatalf("list holds %d bytes after handing its only buffer out", l.Bytes())
	}
	// Handed out once: the next Get is a different buffer.
	if c := l.Get(16); &c[0] == &a[0] {
		t.Fatal("one Put served two Gets")
	}
	l.Put(nil) // nothing to keep
	if l.Bytes() != 0 {
		t.Fatal("an empty buffer was listed")
	}
}

func TestListIsBounded(t *testing.T) {
	var l List[byte]
	const buf = 1 << 20
	for i := 0; i < 2*MaxBytes/buf; i++ {
		l.Put(make([]byte, buf))
	}
	if l.Bytes() != MaxBytes {
		t.Fatalf("list retains %d bytes, want exactly the %d bound", l.Bytes(), MaxBytes)
	}
	l.Put(make([]byte, 1)) // one byte past the bound is still past it
	if l.Bytes() != MaxBytes {
		t.Fatalf("list grew past its bound to %d", l.Bytes())
	}
	l.Get(buf)
	l.Put(make([]byte, 1))
	if l.Bytes() != MaxBytes-buf+1 {
		t.Fatalf("list holds %d bytes, want %d: room freed by Get is reusable", l.Bytes(), MaxBytes-buf+1)
	}
}

// TestConcurrentUse is for the race detector: buffers cross goroutines
// only through the list, and every owner writes its whole buffer.
func TestConcurrentUse(t *testing.T) {
	var l List[int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := l.Get(64 << (i % 3))
				for j := range b {
					b[j] = g
				}
				for j := range b {
					if b[j] != g {
						t.Errorf("buffer shared between owners: %d in goroutine %d's", b[j], g)
						return
					}
				}
				l.Put(b)
			}
		}(g)
	}
	wg.Wait()
}

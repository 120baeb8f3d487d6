package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ovlp/internal/ringpool"
)

// emitRun fills a fresh tracer the way a run does — busy tracks that
// spill, one that stays small — and returns it undrained. detail makes
// the i-th record's Detail string.
func emitRun(recs int, detail func(i int) string) *Tracer {
	tr := New(Options{})
	busy := []*Track{tr.Track(GroupHost, 0, "rank0"), tr.Track(GroupHost, 1, "rank1"), tr.Track(GroupNIC, 0, "nic0")}
	small := tr.Track(GroupHost, 2, "rank2.progress")
	for i := 0; i < recs; i++ {
		tk := busy[i%len(busy)]
		tk.Span("mpi", "Send", us(i), us(i+1), Args{Peer: i % 4, Size: int64(i), Detail: detail(i)})
		if i < 5 {
			small.Instant("kernel", "spawn", us(i), None)
		}
	}
	return tr
}

func spillsOf(tr *Tracer) []int {
	var out []int
	for _, tk := range tr.Tracks() {
		out = append(out, tk.Spills())
	}
	return out
}

// TestRecycledRingNeverLeaks: rings come back from the free list
// uncleared, so a run must behave on a list full of another run's
// records exactly as on an empty one — same export, same spill counts —
// and must never see a slice Recs handed to a caller again, until
// Release says nobody holds it: then the next run flattens into that
// very memory, and still shows none of the records it held.
func TestRecycledRingNeverLeaks(t *testing.T) {
	short := func(i int) string { return "" }
	long := func(i int) string { return strings.Repeat("A", 40) + fmt.Sprint(i) }

	rings, flats = ringpool.List[Rec]{}, ringpool.List[Rec]{}
	cold := emitRun(7000, short)
	coldBytes, coldSpills := cold.AppendChrome(nil), spillsOf(cold)
	coldBig := emitRun(9000, short).AppendChrome(nil)

	// Run A: more records than B on every track, each with a long
	// Detail, drained so that all of its rings are listed.
	a := emitRun(9000, long)
	a.AppendChrome(nil)
	if rings.Bytes() == 0 {
		t.Fatal("draining a run listed no ring — nothing is being recycled")
	}
	kept := a.Tracks()[0].Recs()
	want := append([]Rec(nil), kept...)

	listed := rings.Bytes()
	warm := emitRun(7000, short)
	if rings.Bytes() >= listed {
		t.Fatalf("run B drew nothing from the list (%d bytes before, %d during)", listed, rings.Bytes())
	}
	warmBytes, warmSpills := warm.AppendChrome(nil), spillsOf(warm)
	if !bytes.Equal(warmBytes, coldBytes) {
		t.Error("run B exports differently on recycled rings than on a cold free list")
	}
	if bytes.Contains(warmBytes, []byte("AAAA")) {
		t.Error("run B's export carries run A's Detail strings")
	}
	if fmt.Sprint(warmSpills) != fmt.Sprint(coldSpills) {
		t.Errorf("Spills() %v on recycled rings, %v cold", warmSpills, coldSpills)
	}

	// Run B wrote through every ring it drew; what Recs returned for run
	// A is the caller's and must be untouched.
	for i := range want {
		if kept[i] != want[i] {
			t.Fatalf("record %d of a Recs() result changed under a later run: %+v, was %+v", i, kept[i], want[i])
		}
	}
	if again := a.Tracks()[0].Recs(); &again[0] != &kept[0] {
		t.Error("repeated Recs() built a new slice")
	}
	if flats.Bytes() != 0 {
		t.Fatalf("%d bytes of flats listed with no tracer released", flats.Bytes())
	}

	// Released, run A is empty and its flats are listed — uncleared, long
	// Details and all. Run C, of A's shape, flattens into them.
	released := make(map[*Rec]bool)
	for _, tk := range a.Tracks() {
		released[&tk.Recs()[0]] = true
	}
	a.Release()
	if flats.Bytes() == 0 {
		t.Fatal("Release listed no flat")
	}
	for _, tk := range a.Tracks() {
		if recs := tk.Recs(); recs != nil {
			t.Errorf("track %s holds %d records after Release", tk.Name(), len(recs))
		}
	}
	if meta := a.AppendChrome(nil); !bytes.Contains(meta, []byte(`"thread_name"`)) || bytes.Contains(meta, []byte(`"ph":"X"`)) {
		t.Error("a released tracer's export should hold its metadata and no record")
	}
	c := emitRun(9000, short)
	for _, tk := range c.Tracks() {
		if !released[&tk.Recs()[0]] {
			t.Errorf("track %s flattened into fresh memory with run A's flats listed", tk.Name())
		}
	}
	if flats.Bytes() != 0 {
		t.Errorf("%d bytes of flats still listed after a run of the same shape drew its own", flats.Bytes())
	}
	warmBig := c.AppendChrome(nil)
	if !bytes.Equal(warmBig, coldBig) {
		t.Error("run C exports differently from recycled flats than on a cold free list")
	}
	if bytes.Contains(warmBig, []byte("AAAA")) {
		t.Error("run C's export carries run A's Detail strings")
	}
}

// TestColdFlatSizing: a tracer nobody releases pays for the size classes
// that let released ones meet — by less than a quarter.
func TestColdFlatSizing(t *testing.T) {
	prev := 0
	for n := 1; n <= 1<<16; n++ {
		c := flatClass(n)
		if c < n || c < prev || 4*c > 5*n {
			t.Fatalf("flatClass(%d) = %d (previous %d): want monotonic, >= n and <= 1.25 n", n, c, prev)
		}
		if flatClass(c) != c {
			t.Fatalf("flatClass(%d) = %d is not its own class (%d)", n, c, flatClass(c))
		}
		prev = c
	}
	classes := 0
	for n := 1 << 12; n < 1<<13; n++ {
		if flatClass(n) == n {
			classes++
		}
	}
	if classes != 4 {
		t.Errorf("%d classes in [4096, 8192), want 4", classes)
	}

	flats = ringpool.List[Rec]{}
	for _, n := range []int{1, 9, 1025, 2500, 4097} {
		tk := New(Options{}).Track(GroupHost, 0, "rank0")
		for i := 0; i < n; i++ {
			tk.Instant("c", "e", us(i), None)
		}
		if recs := tk.Recs(); len(recs) != n || 4*cap(recs) > 5*n {
			t.Errorf("cold Recs of %d records: len %d, cap %d, want cap <= 1.25 len", n, len(recs), cap(recs))
		}
	}
}

// TestDoublingDrawsFromFreeList pins the trap the recycling design
// must avoid: if only the hand-over drew from the list, every busy
// track's growth to RingSize would mint a ring the list then gains.
// In steady state a run allocates no ring at all.
func TestDoublingDrawsFromFreeList(t *testing.T) {
	rings = ringpool.List[Rec]{}
	detail := func(int) string { return "" }
	emitRun(7000, detail).AppendChrome(nil) // fills the list
	steady := rings.Bytes()
	for i := 0; i < 3; i++ {
		emitRun(7000, detail).AppendChrome(nil)
		if got := rings.Bytes(); got != steady {
			t.Fatalf("free list holds %d bytes after run %d, %d after the first: rings are being minted", got, i+2, steady)
		}
	}
}

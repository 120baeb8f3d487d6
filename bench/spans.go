package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public API. Start and End are
// host nanoseconds since the recorder was created; Parent indexes the
// enclosing span (-1 for a root) and OpID ties every span of one
// operation together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// spanRec keeps spans in memory until the benchmark ends. A nil
// recorder ignores every call, so the untraced run pays a nil check
// per layer boundary and nothing else. The benchmark runs its
// workloads from one goroutine, so the open-span stack needs no lock.
type spanRec struct {
	t0    time.Time
	spans []span
	stack []int
	opID  int
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now(), opID: -1} }

// beginOp opens the root span of operation id.
func (r *spanRec) beginOp(name string, id int) int {
	if r == nil {
		return -1
	}
	r.opID = id
	return r.begin(name)
}

// begin opens a span under the innermost open one and returns its
// handle for end.
func (r *spanRec) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, OpID: r.opID, Start: int64(time.Since(r.t0))})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic("bench: spans closed out of order")
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns each span's duration minus the part of it its
// direct children cover. Children of one parent never overlap here
// (one goroutine, strictly nested begin/end), so the covered part is
// the sum of the children's durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// sumByName adds up per-span values (durations or self times) by span
// name.
func sumByName(spans []span, vals []int64) map[string]int64 {
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += vals[i]
	}
	return out
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

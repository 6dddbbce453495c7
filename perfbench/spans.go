package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one call across a layer boundary in the traced run. Times are
// offsets from the tracer's epoch; parent is an index into the tracer's
// span list (-1 for a root). n counts the work units the call handled
// (records, phenomena, ...), so ratios are measured where the work happens.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Window string        `json:"window"`
	N      int64         `json:"n,omitempty"`
}

// tracer keeps spans in memory for one goroutine. A nil tracer records
// nothing, which is how the untraced reference pass runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, window string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), End: -1, Parent: parent, Window: window})
	return len(t.spans) - 1
}

// end closes span i, adding n to its work count.
func (t *tracer) end(i int, n int64) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.epoch)
	t.spans[i].N += n
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover
// (overlapping children are merged, and a child's part outside its parent
// is not subtracted).
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the child intervals clipped to
// [from, to).
func covered(spans []span, kids []int, from, to time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, from), min(spans[k].End, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerOf maps a span name to its layer: the module before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// counts sums the work counts per span name.
func counts(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.N
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

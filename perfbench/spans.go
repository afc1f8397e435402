package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call recorded by the harness around a public
// function of the system. Start and End are nanoseconds since the
// recorder's epoch; Parent is the index of the enclosing span (-1 for an
// op's root); Op groups the spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an already-measured span, such as one the daemon reported.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// all returns a copy of every recorded span.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines in dir/name.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
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

type interval struct{ lo, hi int64 }

// selfIntervals returns the parts of [s.Start, s.End] that none of the
// children cover.
func selfIntervals(s span, children []span) []interval {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var out []interval
	at := s.Start
	for _, c := range children {
		if c.Start > at {
			out = append(out, interval{at, min(c.Start, s.End)})
		}
		if c.End > at {
			at = c.End
		}
		if at >= s.End {
			break
		}
	}
	if at < s.End {
		out = append(out, interval{at, s.End})
	}
	return out
}

// selfNs returns each span's self time: its duration minus the part of its
// interval that its children cover. Indices match spans.
func selfNs(spans []span) []int64 {
	kids := children(spans)
	out := make([]int64, len(spans))
	for i, s := range spans {
		for _, iv := range selfIntervals(s, kids[i]) {
			out[i] += iv.hi - iv.lo
		}
	}
	return out
}

// attributedNs divides each op's wall time among its spans. At every
// instant the spans whose self interval covers it — the innermost spans
// running then — share that instant equally. Spans that run one at a time
// get exactly their self time; spans that run concurrently split the
// overlap. Either way the attributions of an op's spans sum to its root
// span's duration. Indices match spans.
func attributedNs(spans []span) []float64 {
	kids := children(spans)
	type edge struct {
		t     int64
		owner int
		open  bool
	}
	byOp := map[int][]edge{}
	for i, s := range spans {
		for _, iv := range selfIntervals(s, kids[i]) {
			if iv.hi <= iv.lo {
				continue
			}
			byOp[s.Op] = append(byOp[s.Op], edge{iv.lo, i, true}, edge{iv.hi, i, false})
		}
	}
	out := make([]float64, len(spans))
	for _, edges := range byOp {
		sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
		active := map[int]bool{}
		for i, e := range edges {
			if i > 0 && len(active) > 0 {
				dt := float64(e.t - edges[i-1].t)
				for o := range active {
					out[o] += dt / float64(len(active))
				}
			}
			if e.open {
				active[e.owner] = true
			} else {
				delete(active, e.owner)
			}
		}
	}
	return out
}

// children lists each span's direct children.
func children(spans []span) [][]span {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// layerStats aggregates spans by name: call count, total self time, and
// total attributed wall time.
type layerStats struct {
	Calls      int
	SelfNs     int64
	AttribNs   float64
	DurationNs int64
}

func byLayer(spans []span) map[string]*layerStats {
	self, attr := selfNs(spans), attributedNs(spans)
	out := map[string]*layerStats{}
	for i, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.Calls++
		ls.SelfNs += self[i]
		ls.AttribNs += attr[i]
		ls.DurationNs += s.End - s.Start
	}
	return out
}

// meanSelfMs is a layer's mean self time per call in milliseconds (0 when
// the layer recorded no call).
func meanSelfMs(layers map[string]*layerStats, name string) float64 {
	ls := layers[name]
	if ls == nil || ls.Calls == 0 {
		return 0
	}
	return float64(ls.SelfNs) / float64(ls.Calls) / 1e6
}

// split renders each layer's share of the total of value over all layers.
func split(layers map[string]*layerStats, value func(*layerStats) float64) string {
	total := 0.0
	names := make([]string, 0, len(layers))
	for name, ls := range layers {
		total += value(ls)
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return value(layers[names[i]]) > value(layers[names[j]]) })
	out := ""
	for _, name := range names {
		if total > 0 {
			out += fmt.Sprintf(" %s %.1f%%", name, 100*value(layers[name])/total)
		}
	}
	return out
}

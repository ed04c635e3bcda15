package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A span is one timed call across a layer boundary. Name is
// "<layer>.<call>"; ID is the publish index the span belongs to (-1 for the
// round itself); Parent indexes the enclosing span in the recorder (-1 for
// the root). Start and End are nanoseconds on the recorder's monotonic
// clock.
type span struct {
	Name       string
	ID         int
	Parent     int
	Start, End int64
}

// layer returns the span's layer: its name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps a traced round's spans in memory. Its slice is allocated
// before the round starts, so recording allocates nothing while the round
// runs unless the capacity estimate was short.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// now reads the recorder's monotonic clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under parent and returns its index. On a nil
// recorder (an untraced round) it records nothing and returns -1.
func (r *recorder) begin(name string, id, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: r.now()})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r != nil && i >= 0 {
		r.spans[i].End = r.now()
	}
}

// add records a span whose interval was measured elsewhere: the per-publish
// aggregate of per-reference calls.
func (r *recorder) add(name string, id, parent int, start, end int64) {
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover. Children are clipped to their parent
// and overlapping children are counted once, so for a well-formed tree the
// self times sum to the root spans' duration.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, children[i])
	}
	return self
}

// layerSelfError returns how far the self times of the layer spans sum from
// wall, the traced loop's wall time, as a share of wall. Every span but the
// harness's own (layer "harness") is a layer span. The harness spans only
// give the tree its shape: their self time, and any wall time outside the
// root span, is loop time no layer span accounts for, so a layer call left
// untimed, or timed outside the tree, shows up here.
func layerSelfError(spans []span, wall int64) float64 {
	self := selfTimes(spans)
	var sum int64
	for i, s := range spans {
		if s.layer() != "harness" {
			sum += self[i]
		}
	}
	return math.Abs(float64(wall-sum)) / float64(wall)
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			sum += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// writeSpans writes spans as tab-separated lines (name, id, parent index,
// start ns, end ns) under dir, one file per workload and seed.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.Name, s.ID, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, made by the
// benchmark itself. Spans of one operation share op; parent links a span
// to the span whose call caused it (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// op allocates an operation id.
func (t *tracer) op() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	return id
}

// timed runs fn inside a top-level span of operation op.
func (t *tracer) timed(name string, op int64, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, 0, op, start, time.Now())
	return err
}

// layerTime is the total and self time of one span name.
type layerTime struct {
	count      int
	total, own time.Duration
}

// selfTimes sums, per span name, the durations and the self times: a
// span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.own += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is how much of s's interval the union of cs covers.
func covered(s span, cs []span) time.Duration {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// writeTable prints per-span-name counts, mean duration and mean self
// time.
func writeTable(w io.Writer, lts map[string]*layerTime) {
	names := make([]string, 0, len(lts))
	for n := range lts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %8s %12s %12s\n", "span", "count", "mean_ms", "self_ms")
	for _, n := range names {
		lt := lts[n]
		fmt.Fprintf(w, "%-36s %8d %12.4f %12.4f\n", n, lt.count,
			ms(lt.total)/float64(lt.count), ms(lt.own)/float64(lt.count))
	}
}

// save writes every span as JSON.
func (t *tracer) save(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

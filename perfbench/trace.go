package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// verdict share Verdict; Parent is the index of the enclosing span, or
// -1 for a root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Verdict int    `json:"verdict"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op. Spans are recorded from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, verdict int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Verdict: verdict})
	return len(t.spans) - 1
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// medianUS is the median duration of the closed spans with this name,
// in microseconds.
func (t *tracer) medianUS(name string) float64 {
	var us []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return quantile(us, 0.5)
}

// selfTimes returns, per span name, the span count, total duration and
// self time: each span's duration minus the part of it that its
// children's intervals cover.
func (t *tracer) selfTimes() map[string][3]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][3]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		acc := out[s.Name]
		acc[0]++
		acc[1] += float64(dur) / 1e6
		acc[2] += float64(dur-covered) / 1e6
		out[s.Name] = acc
	}
	return out
}

// printSelfTimes prints the per-span-name breakdown of a traced run.
func (t *tracer) printSelfTimes(workload string) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := st[n]
		fmt.Printf("%s: span %-24s count %6.0f total %10.3f ms self %10.3f ms\n", workload, n, v[0], v[1], v[2])
	}
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(name string, start, end time.Time, parent, verdict int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Verdict: verdict})
	return len(t.spans) - 1
}

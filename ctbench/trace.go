package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program:
// a Take, a NextBatch, a Sign, an HTTP round trip, or a whole layer
// replay.  Start and End are nanoseconds since the tracer's epoch.
type span struct {
	Name   string           `json:"name"`
	Trace  uint64           `json:"trace"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"` // 0 = root
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Count  int              `json:"count,omitempty"`  // samples, words or ops the span covers
	Stages map[string]int64 `json:"stages,omitempty"` // daemon stage trailer (ns)
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds a tracer's memory; spans past it are counted, not kept.
const maxSpans = 400_000

// tracer keeps spans in memory until the run ends.  A nil *tracer is the
// untraced mode: every method is a no-op, so untraced workload loops pay
// one nil check per call.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	nextID  int64
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// since converts a wall-clock instant to the tracer's nanosecond clock.
func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span, giving it the next ID unless it holds
// one from reserve.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.nextID++
		s.ID = t.nextID
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// record is add for a call timed as [start, end).
func (t *tracer) record(name string, trace uint64, parent int64, start, end time.Time, count int) {
	if t == nil {
		return
	}
	t.add(span{Name: name, Trace: trace, Parent: parent, Start: t.since(start), End: t.since(end), Count: count})
}

// reserve returns an ID for a parent span recorded after its children.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// layerTime is one span name's aggregate: total and self time.
type layerTime struct {
	Spans          int     `json:"spans"`
	Count          int     `json:"count"`
	TotalNs        int64   `json:"total_ns"`
	SelfNs         int64   `json:"self_ns"`
	SelfNsPerCount float64 `json:"self_ns_per_count,omitempty"`
}

// selfTimes aggregates spans by name.  A span's self time is its
// duration minus the part of its interval its children cover (children
// clipped to the parent, overlapping children counted once).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Spans++
		lt.Count += s.Count
		lt.TotalNs += s.dur()
		lt.SelfNs += s.dur() - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	for name, lt := range out {
		if lt.Count > 0 {
			lt.SelfNsPerCount = float64(lt.SelfNs) / float64(lt.Count)
			out[name] = lt
		}
	}
	return out
}

// covered returns the length of the union of kids' intervals clipped to
// parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeSpans writes every kept span as one JSON object per line to
// path, and each span name's total and self time to selfFile(path).
func (t *tracer) writeSpans(path string, self map[string]layerTime) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(self, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(selfFile(path), b, 0o644)
}

// selfFile is where the self times of the spans in path go.
func selfFile(path string) string {
	return strings.TrimSuffix(path, ".spans.jsonl") + ".self.json"
}

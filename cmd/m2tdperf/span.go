package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program
// under test. Spans of one campaign share its number; Parent is the ID of
// the span that caused this one (0 for a campaign's root).
type span struct {
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	Campaign int    `json:"campaign"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps the spans of one traced run in memory; they are written
// out once, when the run ends. A nil recorder records nothing, so the
// timed arms share the traced run's call sites at the cost of a nil check.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// start opens a span and returns the function that closes it and reports
// its duration. The span's ID is returned for use as a child's parent.
func (r *recorder) start(campaign int, name string, parent int) (id int, end func() time.Duration) {
	begin := time.Now()
	if r == nil {
		return 0, func() time.Duration { return time.Since(begin) }
	}
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Workload: r.workload, Campaign: campaign, Name: name, Parent: parent,
		StartNS: begin.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
	return id, func() time.Duration {
		d := time.Since(begin)
		r.mu.Lock()
		r.spans[id-1].EndNS = r.spans[id-1].StartNS + d.Nanoseconds()
		r.mu.Unlock()
		return d
	}
}

// time records one call as a span and returns its duration in seconds.
func (r *recorder) time(campaign int, name string, parent int, fn func()) float64 {
	_, end := r.start(campaign, name, parent)
	fn()
	return end().Seconds()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// ID: its duration minus the part of its interval that its child spans
// cover. Children that overlap one another (concurrent calls) are counted
// once, and a child reaching outside its parent counts only for the part
// inside.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// appendJSONL appends the spans to path, one JSON object per line, each
// carrying its self time so the file can be read without the tree.
func appendJSONL(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
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

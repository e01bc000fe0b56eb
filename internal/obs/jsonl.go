package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// JSONLVersion is the structured event-log format version.
const JSONLVersion = 1

// Event is one line of the structured event log. The log is a
// self-describing replayable stream:
//
//	{"kind":"meta", ...}     exactly once, first line
//	{"kind":"span", ...}     one per span, parents before children
//	                         (IDs assigned in deterministic pre-order)
//	{"kind":"metrics", ...}  optional final registry snapshot
//
// Span IDs are pre-order positions, so two runs of the same
// configuration emit the same id/parent/name/counters on every line;
// only start/duration fields differ.
type Event struct {
	Kind string `json:"kind"`

	// meta fields.
	Version   int    `json:"version,omitempty"`
	Trace     string `json:"trace,omitempty"`
	CreatedNS int64  `json:"created_unix_ns,omitempty"`

	// span fields. Parent is nil for the root span; Running marks a span
	// logged before its Finish.
	ID       int              `json:"id,omitempty"`
	Parent   *int             `json:"parent,omitempty"`
	Name     string           `json:"name,omitempty"`
	StartNS  int64            `json:"start_ns,omitempty"`
	DurNS    int64            `json:"dur_ns,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	Running  bool             `json:"running,omitempty"`

	// metrics fields.
	Snapshot map[string]any `json:"snapshot,omitempty"`
}

// WriteJSONL emits the span tree (and, when snapshot is non-nil, a final
// metrics snapshot) as the structured event log. root may be nil, in
// which case only the meta (and snapshot) lines are written.
func WriteJSONL(w io.Writer, root *SpanData, snapshot map[string]any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := Event{Kind: "meta", Version: JSONLVersion, Trace: root.name(), CreatedNS: time.Now().UnixNano()}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	if root != nil {
		id := 0
		var emit func(d *SpanData, parent *int) error
		emit = func(d *SpanData, parent *int) error {
			my := id
			id++
			ev := Event{
				Kind:     "span",
				ID:       my,
				Parent:   parent,
				Name:     d.Name,
				StartNS:  d.StartNS,
				DurNS:    d.DurNS,
				Counters: d.Counters,
				Gauges:   d.Gauges,
				Running:  d.Running,
			}
			if err := enc.Encode(ev); err != nil {
				return err
			}
			for _, c := range d.Children {
				if err := emit(c, &my); err != nil {
					return err
				}
			}
			return nil
		}
		if err := emit(root, nil); err != nil {
			return err
		}
	}
	if snapshot != nil {
		if err := enc.Encode(Event{Kind: "metrics", Snapshot: snapshot}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (d *SpanData) name() string {
	if d == nil {
		return ""
	}
	return d.Name
}

// ReadJSONL replays a structured event log: it rebuilds the span tree and
// returns the final metrics snapshot (nil when the log carries none).
// Unknown event kinds are skipped, so the format can grow. A span line
// whose id an earlier line already bound, or whose parent is not an
// earlier line's id (itself included), is an error naming the line.
func ReadJSONL(r io.Reader) (*SpanData, map[string]any, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		root     *SpanData
		byID     = map[int]*SpanData{}
		snapshot map[string]any
		sawMeta  bool
		line     int
	)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, nil, fmt.Errorf("obs: trace log line %d: %w", line, err)
		}
		switch ev.Kind {
		case "meta":
			if ev.Version > JSONLVersion {
				return nil, nil, fmt.Errorf("obs: trace log version %d newer than supported %d", ev.Version, JSONLVersion)
			}
			sawMeta = true
		case "span":
			if _, dup := byID[ev.ID]; dup {
				return nil, nil, fmt.Errorf("obs: trace log line %d: span id %d repeated", line, ev.ID)
			}
			d := &SpanData{
				Name:     ev.Name,
				StartNS:  ev.StartNS,
				DurNS:    ev.DurNS,
				Counters: ev.Counters,
				Gauges:   ev.Gauges,
				Running:  ev.Running,
			}
			if ev.Parent == nil {
				if root != nil {
					return nil, nil, fmt.Errorf("obs: trace log line %d: second root span", line)
				}
				root = d
			} else {
				p, ok := byID[*ev.Parent]
				if !ok {
					return nil, nil, fmt.Errorf("obs: trace log line %d: span %d references unknown parent %d", line, ev.ID, *ev.Parent)
				}
				p.Children = append(p.Children, d)
			}
			byID[ev.ID] = d
		case "metrics":
			snapshot = ev.Snapshot
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if !sawMeta {
		return nil, nil, fmt.Errorf("obs: trace log has no meta line (not a trace log?)")
	}
	return root, snapshot, nil
}

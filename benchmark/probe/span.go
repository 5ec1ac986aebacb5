// Package probe measures the repository's layers in-process, on the
// shape of one workload, from the benchmark's side of their public
// functions: it times calls into internal/ packages, records every call
// as a span, and pumps a four-replica asmr cluster over an in-memory
// simnet.Env (no sockets) timing each OnMessage by the package that owns
// the message. Spans inside the node binary are a later change.
package probe

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// NoParent is the Parent of a root span.
const NoParent = -1

// Span is one timed call. Start and End are offsets from the recorder's
// creation; Parent is the ID of the span that caused it; Block is the
// index of the block the work belongs to, shared by all its spans.
type Span struct {
	ID     int           `json:"id"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Block  int           `json:"block"`
}

// Recorder keeps spans in memory until WriteJSONL. It is not safe for
// concurrent use: the probes run on one goroutine.
type Recorder struct {
	t0    time.Time
	spans []Span
}

// NewRecorder starts the recorder's clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name string, parent, block int) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Name: name, Parent: parent, Block: block, Start: time.Since(r.t0)})
	return id
}

// End closes the span and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	s := &r.spans[id]
	s.End = time.Since(r.t0)
	return s.End - s.Start
}

// Time records fn as one span and returns its duration.
func (r *Recorder) Time(name string, parent, block int, fn func()) time.Duration {
	id := r.Begin(name, parent, block)
	fn()
	return r.End(id)
}

// Spans returns the recorded spans, in Begin order.
func (r *Recorder) Spans() []Span { return r.spans }

// WriteJSONL writes one JSON object per span.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// SelfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Overlapping children are not
// counted twice and a child is clipped to its parent's interval.
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != NoParent {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// SelfByName totals self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range SelfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

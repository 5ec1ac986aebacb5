// Package obs is the observability layer: deterministic structured
// tracing of the consensus transaction lifecycle, a dependency-free
// Prometheus-text metrics registry for the real deployment
// (cmd/zlb-node -metrics-addr), and leveled logging.
//
// Tracing is designed around the repository's bit-identical-determinism
// discipline. Every recorded Event carries the recording replica's
// *virtual* timestamp (simnet.Env.Now(), per node and seed-deterministic)
// and is appended to a per-node buffer. The simulator serializes all
// activity of one node, so per-node buffers need no locks and their
// append order is fixed by the seed. Tracer stitches the buffers into a
// single stream with a deterministic merge (timestamp, then node, then
// per-node order), so the merged JSONL and its digest depend on what
// each replica recorded and when, not on how the buffers interleaved;
// the determinism suite pins this with a golden digest.
//
// Recording is zero-cost when disabled: every NodeTracer method is safe
// on a nil receiver and returns immediately, so instrumented protocol
// code passes a nil tracer through untouched hot paths (no allocation,
// one predictable branch).
package obs

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/zeroloss/zlb/internal/types"
)

// Lifecycle phase names. The happy path of one transaction batch is
// mempool_admit → batch_propose → rbc_init → rbc_deliver → bincon_round*
// → bincon_decide* → sbc_decide → commit; the accountability arc is
// disagreement → pof → exclusion → merge (→ inclusion).
const (
	PhaseMempoolAdmit  = "mempool_admit"
	PhaseMempoolReject = "mempool_reject"
	PhaseBatchPropose  = "batch_propose"
	PhaseRBCInit       = "rbc_init"
	PhaseRBCDeliver    = "rbc_deliver"
	PhaseBinRound      = "bincon_round"
	PhaseBinDecide     = "bincon_decide"
	PhaseSBCDecide     = "sbc_decide"
	PhaseCommit        = "commit"
	PhaseDisagreement  = "disagreement"
	PhaseMerge         = "merge"
	PhasePoF           = "pof"
	PhaseExclusion     = "exclusion"
	PhaseInclusion     = "inclusion"
)

// Event is one span event of the transaction lifecycle. At is the
// recording replica's virtual clock (nanoseconds in JSON). K is the
// consensus instance, Slot the broadcaster slot within it, Round the
// binary-consensus round; ID is a free-form correlator (decided bit,
// culprit, reject reason, ...). Zero-valued fields are omitted from the
// JSON encoding.
type Event struct {
	At    time.Duration   `json:"at_ns"`
	Node  types.ReplicaID `json:"node"`
	Phase string          `json:"phase"`
	K     uint64          `json:"k,omitempty"`
	Slot  uint32          `json:"slot,omitempty"`
	Round uint32          `json:"round,omitempty"`
	ID    string          `json:"id,omitempty"`
}

// NodeTracer is one replica's event buffer. All methods are nil-safe:
// a nil *NodeTracer records nothing and costs one branch, which is the
// disabled path every protocol package ships with.
//
// A NodeTracer must only be used from the owning replica's event
// handlers (the simulator serializes those) or from the one goroutine
// that runs the simulation.
type NodeTracer struct {
	node types.ReplicaID
	evs  []Event
}

// Record appends one event with every correlation field.
func (t *NodeTracer) Record(at time.Duration, phase string, k uint64, slot, round uint32, id string) {
	if t == nil {
		return
	}
	t.evs = append(t.evs, Event{At: at, Node: t.node, Phase: phase, K: k, Slot: slot, Round: round, ID: id})
}

// Len reports the number of buffered events (0 on nil).
func (t *NodeTracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.evs)
}

// Tracer owns the per-node buffers of one traced run. The zero value is
// not usable; NewTracer allocates one. A nil *Tracer is the disabled
// state: Node returns a nil NodeTracer and Events returns nothing.
type Tracer struct {
	mu    sync.Mutex
	nodes map[types.ReplicaID]*NodeTracer
}

// NewTracer creates an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{nodes: make(map[types.ReplicaID]*NodeTracer)}
}

// Node hands out (creating on first use) the buffer for one replica.
// Safe on a nil Tracer, in which case it returns a nil NodeTracer —
// the zero-cost disabled path.
func (tr *Tracer) Node(id types.ReplicaID) *NodeTracer {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, ok := tr.nodes[id]
	if !ok {
		t = &NodeTracer{node: id}
		tr.nodes[id] = t
	}
	return t
}

// Len reports the total number of buffered events across all node
// buffers (0 on nil).
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, t := range tr.nodes {
		n += len(t.evs)
	}
	return n
}

// Events merges every node buffer into one deterministic stream ordered
// by (At, Node, per-node append order). Because per-node append order is
// seed-deterministic, the merged stream is too.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ids := make([]types.ReplicaID, 0, len(tr.nodes))
	for id := range tr.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	total := 0
	for _, id := range ids {
		total += len(tr.nodes[id].evs)
	}
	out := make([]Event, 0, total)
	for _, id := range ids {
		out = append(out, tr.nodes[id].evs...)
	}
	// Stable sort: events with equal (At, Node) keep per-node append
	// order, which the loop above laid down node by node.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// WriteJSONL writes the merged stream as one JSON object per line.
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range tr.Events() {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("obs: encoding trace event: %w", err)
		}
	}
	return bw.Flush()
}

// Digest returns the hex SHA-256 of the merged JSONL stream — the value
// the determinism suite pins against a golden.
func (tr *Tracer) Digest() string {
	h := sha256.New()
	if err := tr.WriteJSONL(h); err != nil {
		// sha256 never errors; WriteJSONL only fails on encoder errors,
		// which a plain struct cannot produce.
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RunHeader labels the trace events that follow it in a JSONL sink with
// the experiment point that produced them. zlb-bench writes one header
// per point; tools/tracelat groups events by the most recent header.
type RunHeader struct {
	Experiment string `json:"experiment"`
	System     string `json:"system,omitempty"`
	N          int    `json:"n"`
	Seed       int64  `json:"seed"`
}

// headerLine is the wire form of a RunHeader line: {"run":{...}}. The
// wrapper key distinguishes header lines from event lines.
type headerLine struct {
	Run *RunHeader `json:"run"`
}

// WriteRunHeader writes one header line to a JSONL sink.
func WriteRunHeader(w io.Writer, h RunHeader) error {
	raw, err := json.Marshal(headerLine{Run: &h})
	if err != nil {
		return fmt.Errorf("obs: encoding run header: %w", err)
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// ParseJSONLLine decodes one line of a trace sink: either a RunHeader
// (header != nil) or an Event. Used by tools/tracelat.
func ParseJSONLLine(line []byte) (header *RunHeader, ev Event, err error) {
	var h headerLine
	if err := json.Unmarshal(line, &h); err == nil && h.Run != nil {
		return h.Run, Event{}, nil
	}
	if err := json.Unmarshal(line, &ev); err != nil {
		return nil, Event{}, fmt.Errorf("obs: bad trace line %q: %w", line, err)
	}
	return nil, ev, nil
}

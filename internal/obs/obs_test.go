package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTracerDeterministicMerge checks the merge order contract: events
// are ordered by (At, Node, per-node append order) no matter which node
// buffers filled first or in what interleaving.
func TestTracerDeterministicMerge(t *testing.T) {
	build := func(nodeFirst bool) string {
		tr := NewTracer()
		a, b := tr.Node(1), tr.Node(2)
		if nodeFirst {
			a, b = tr.Node(1), tr.Node(2)
		}
		// Same timestamps on both nodes, plus per-node ties.
		b.Record(10*time.Millisecond, PhaseRBCDeliver, 1, 0, 0, "")
		a.Record(10*time.Millisecond, PhaseRBCDeliver, 1, 0, 0, "")
		a.Record(10*time.Millisecond, PhaseBinDecide, 1, 0, 0, "")
		b.Record(5*time.Millisecond, PhaseRBCInit, 1, 0, 0, "")
		return tr.Digest()
	}
	if build(true) != build(false) {
		t.Fatal("merge digest depends on buffer creation order")
	}
	tr := NewTracer()
	tr.Node(2).Record(10*time.Millisecond, PhaseCommit, 3, 0, 0, "")
	tr.Node(1).Record(10*time.Millisecond, PhaseCommit, 3, 0, 0, "")
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Node != 1 || evs[1].Node != 2 {
		t.Fatalf("equal-timestamp events not ordered by node: %+v", evs)
	}
}

// TestNilTracerZeroCost pins the disabled path: nil receivers record
// nothing and allocate nothing.
func TestNilTracerZeroCost(t *testing.T) {
	var tr *Tracer
	nt := tr.Node(7)
	if nt != nil {
		t.Fatal("nil Tracer handed out a live NodeTracer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		nt.Record(time.Second, PhaseCommit, 1, 2, 3, "x")
	})
	if allocs != 0 {
		t.Fatalf("nil NodeTracer allocated %.1f per run, want 0", allocs)
	}
	if tr.Events() != nil || nt.Len() != 0 {
		t.Fatal("nil tracer reported events")
	}
}

// TestTraceJSONLRoundTrip checks the sink line formats tracelat parses.
func TestTraceJSONLRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := WriteRunHeader(&sb, RunHeader{Experiment: "fig3", System: "ZLB", N: 9, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	tr.Node(1).Record(3*time.Millisecond, PhaseRBCInit, 2, 1, 0, "")
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	h, _, err := ParseJSONLLine([]byte(lines[0]))
	if err != nil || h == nil || h.N != 9 || h.System != "ZLB" {
		t.Fatalf("header line parse: h=%+v err=%v", h, err)
	}
	h2, ev, err := ParseJSONLLine([]byte(lines[1]))
	if err != nil || h2 != nil {
		t.Fatalf("event line parse: h=%+v err=%v", h2, err)
	}
	if ev.Phase != PhaseRBCInit || ev.K != 2 || ev.Slot != 1 || ev.At != 3*time.Millisecond {
		t.Fatalf("event round trip: %+v", ev)
	}
}

// TestMetricsExposition checks the Prometheus text rendering: family
// grouping, label determinism, histogram cumulative buckets.
func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	constant := func(v float64) func() float64 { return func() float64 { return v } }
	m.CounterFunc("zlb_blocks_committed_total", "Blocks committed.", constant(3))
	m.CounterFunc("zlb_mempool_rejected_total", "Rejected transactions.", constant(1), "reason", "full")
	m.CounterFunc("zlb_mempool_rejected_total", "Rejected transactions.", constant(2), "reason", "duplicate")
	m.GaugeFunc("zlb_chain_height", "Chain height.", constant(17))
	m.GaugeFunc("zlb_mempool_pending", "Pool entries.", constant(5))
	h := m.Histogram("zlb_commit_seconds", "Commit gap.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE zlb_blocks_committed_total counter",
		"zlb_blocks_committed_total 3",
		`zlb_mempool_rejected_total{reason="duplicate"} 2`,
		`zlb_mempool_rejected_total{reason="full"} 1`,
		"zlb_chain_height 17",
		"zlb_mempool_pending 5",
		`zlb_commit_seconds_bucket{le="0.1"} 1`,
		`zlb_commit_seconds_bucket{le="1"} 2`,
		`zlb_commit_seconds_bucket{le="+Inf"} 3`,
		"zlb_commit_seconds_sum 3.55",
		"zlb_commit_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# HELP zlb_mempool_rejected_total") != 1 {
		t.Errorf("HELP emitted per series instead of per family:\n%s", out)
	}
}

// TestLoggerLevels checks threshold filtering and nil-safety.
func TestLoggerLevels(t *testing.T) {
	var got []string
	sink := func(format string, args ...any) { got = append(got, format) }
	l := NewLogger(sink, LevelInfo)
	l.Debugf("dropped")
	l.Infof("kept-info")
	l.Warnf("kept-warn")
	l.Errorf("kept-error")
	if len(got) != 3 || got[0] != "kept-info" {
		t.Fatalf("level filtering wrong: %v", got)
	}
	var nilLogger *Logger
	nilLogger.Errorf("no panic")
	if lv, err := ParseLevel("WARN"); err != nil || lv != LevelWarn {
		t.Fatalf("ParseLevel: %v %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}

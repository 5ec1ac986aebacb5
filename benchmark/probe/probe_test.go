package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 0, Name: "block", Start: 0, End: 100 * ms, Parent: NoParent},
		{ID: 1, Name: "decode", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{ID: 2, Name: "verify", Start: 20 * ms, End: 50 * ms, Parent: 0},  // overlaps decode by 10 ms
		{ID: 3, Name: "commit", Start: 90 * ms, End: 120 * ms, Parent: 0}, // runs 20 ms past its parent
		{ID: 4, Name: "hash", Start: 22 * ms, End: 27 * ms, Parent: 2},
		{ID: 5, Name: "block", Start: 200 * ms, End: 260 * ms, Parent: NoParent},
	}
	want := []time.Duration{
		50 * ms, // 100 − (10..50 covered once = 40) − (90..100 = 10)
		20 * ms,
		25 * ms, // 30 − hash 5
		30 * ms,
		5 * ms,
		60 * ms,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	byName := SelfByName(spans)
	if byName["block"] != 110*ms || byName["verify"] != 25*ms {
		t.Errorf("SelfByName = %v", byName)
	}
}

func TestRecorderJSONL(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin("block", NoParent, 7)
	rec.Time("child", root, 7, func() {})
	rec.End(root)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var child Span
	if err := json.Unmarshal([]byte(lines[1]), &child); err != nil {
		t.Fatal(err)
	}
	if child.Name != "child" || child.Parent != root || child.Block != 7 || child.End < child.Start {
		t.Fatalf("child span = %+v", child)
	}
	spans := rec.Spans()
	if spans[0].Start > spans[1].Start || spans[0].End < spans[1].End {
		t.Fatalf("child not inside its parent: %+v", spans)
	}
}

// layerMetrics are the names Layers must report.
var layerMetrics = []string{
	"crypto.sign_us", "crypto.verify_us", "accountability.cert_verify_us",
	"wire.encode_batch_us", "wire.decode_batch_us",
	"transport.frame_encode_us", "transport.frame_decode_us", "transport.vote_frame_us",
	"mempool.add_us", "mempool.take_us", "mempool.prune_us",
	"pipeline.speculate_us_per_tx", "bm.commit_us_per_tx",
	"store.append_flush_ms", "store.checkpoint_ms",
}

func TestLayers(t *testing.T) {
	for _, disjoint := range []bool{false, true} {
		rec := NewRecorder()
		// 300 transactions per block: more than the wallets, so blocks
		// contain intra-block spend chains.
		got, err := Layers(rec, Shape{Seed: 3, N: 4, BlockTxs: 300, Disjoint: disjoint, StoreDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range layerMetrics {
			if v, ok := got[name]; !ok || v <= 0 {
				t.Errorf("disjoint=%v: %s = %v, want > 0", disjoint, name, v)
			}
		}
		if len(got) != len(layerMetrics) {
			t.Errorf("disjoint=%v: %d metrics, want %d: %v", disjoint, len(got), len(layerMetrics), got)
		}
		for i, self := range SelfTimes(rec.Spans()) {
			if self < 0 {
				t.Errorf("span %d has negative self time %v", i, self)
			}
		}
	}
}

func TestPump(t *testing.T) {
	for _, disjoint := range []bool{false, true} {
		rec := NewRecorder()
		got, err := Pump(rec, Shape{Seed: 5, N: 4, BlockTxs: 750, Disjoint: disjoint})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{
			"rbc.busy_ms_per_block", "bincon.busy_ms_per_block", "sbc.busy_ms_per_block", "asmr.busy_ms_per_block",
			"rbc.msgs_per_block", "bincon.msgs_per_block", "bincon.rounds_per_slot",
		} {
			if _, ok := got[name]; !ok {
				t.Errorf("disjoint=%v: %s missing from %v", disjoint, name, got)
			}
		}
		// n INITs, n² ECHOs and n² READYs per block, seen from one replica:
		// 1 + n + n per broadcaster, n broadcasters.
		if m := got["rbc.msgs_per_block"]; m < 4*(1+4+4) {
			t.Errorf("disjoint=%v: rbc.msgs_per_block = %v, want at least 36", disjoint, m)
		}
		if r := got["bincon.rounds_per_slot"]; r < 1 {
			t.Errorf("disjoint=%v: bincon.rounds_per_slot = %v, want at least 1", disjoint, r)
		}
		if len(rec.Spans()) == 0 {
			t.Error("pump recorded no spans")
		}
	}
}

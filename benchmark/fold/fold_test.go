package fold

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestFoldFixture folds a checked-in `go tool pprof -traces` text: ten
// stacks taken from a real zlb-node profile plus two written by hand
// (the metrics endpoint, an idle pipeline worker), 200 ms in all.
func TestFoldFixture(t *testing.T) {
	f, err := os.Open("testdata/node.traces")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := Fold(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != 200*time.Millisecond {
		t.Fatalf("total = %v, want 200ms", p.Total)
	}
	wantLayer := map[string]float64{
		"bincon":         0.05, // certificate check: pipeline and crypto frames are skipped
		"accountability": 0.10, // a statement verified for rbc, a statement signed for rbc
		"utxo":           0.10, // tx signature on a pipeline worker, tx ID hash
		"transport":      0.40, // gob decode, gob allocation, socket write
		LayerRuntime:     0.15, // GC worker, netpoll
		LayerNode:        0.15, // /status handler
		"pipeline":       0.05, // idle worker: only a utility frame on the stack
	}
	wantKind := map[string]float64{
		"sigverify": 0.15,
		"sign":      0.05,
		"gc":        0.05,
		"alloc":     0.05,
		"hash":      0.05,
		"syscall":   0.40,
		"gob":       0.05,
		KindOther:   0.20,
	}
	check := func(what string, got map[string]time.Duration, want map[string]float64, share func(string) float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: got %v, want keys of %v", what, got, want)
		}
		sum := 0.0
		for name, w := range want {
			if g := share(name); math.Abs(g-w) > 1e-9 {
				t.Errorf("%s %s share = %v, want %v", what, name, g, w)
			}
			sum += share(name)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s shares add up to %v", what, sum)
		}
	}
	check("layer", p.Layer, wantLayer, p.LayerShare)
	check("kind", p.Kind, wantKind, p.KindShare)
}

func TestFoldAdd(t *testing.T) {
	a, b := New(), New()
	a.Total, a.Layer["rbc"], a.Kind["gob"] = 30, 30, 30
	b.Total, b.Layer["rbc"], b.Layer["sbc"], b.Kind["gc"] = 10, 4, 6, 10
	a.Add(b)
	if a.Total != 40 || a.Layer["rbc"] != 34 || a.Layer["sbc"] != 6 || a.Kind["gc"] != 10 {
		t.Fatalf("Add: %+v", a)
	}
	if New().LayerShare("rbc") != 0 {
		t.Fatal("share of an empty profile is not 0")
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	_, err := Fold(strings.NewReader("Type: cpu\n-----------+----\n   notatime   runtime.main\n"))
	if err == nil {
		t.Fatal("expected an error for a block without a sample value")
	}
}

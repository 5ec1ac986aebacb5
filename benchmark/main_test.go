package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"github.com/zeroloss/zlb/benchmark/cluster"
	"github.com/zeroloss/zlb/benchmark/loadgen"
)

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root and the
// tables in this package in step: same window, same workloads, same
// metrics with the same units, directions and bounds, and this directory as
// the only path.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if got := time.Duration(doc.RunSeconds) * time.Second; got != window {
		t.Errorf("run_seconds = %v in BENCHMARK.json, the window is %v here", got, window)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.Name || doc.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, {%s %s} here", i, doc.Workloads[i], wl.Name, wl.Why)
		}
		if len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", wl.Name, len(wl.Why))
		}
	}
	compare := func(what string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), what, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v here", what, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v here", what, d.Name, d.Bound)
			}
		}
	}
	compare("end-to-end", doc.EndToEnd, endToEnd, true)
	compare("per-layer", doc.PerLayer, perLayer, false)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestWorkloadTable(t *testing.T) {
	for _, wl := range workloads {
		if (wl.Rate > 0) == (wl.InFlight > 0) {
			t.Errorf("%s must be either open loop (Rate) or closed loop (InFlight)", wl.Name)
		}
		got, ok := workloadByName(wl.Name)
		if !ok || got.Name != wl.Name {
			t.Errorf("workloadByName(%q) = %+v, %v", wl.Name, got, ok)
		}
	}
	if _, ok := workloadByName("steady"); ok {
		t.Error("workloadByName matched a prefix")
	}
}

func TestMeanBetween(t *testing.T) {
	t0 := time.Unix(1000, 0)
	samples := []speedSample{{t0, 60}, {t0.Add(time.Second), 80}, {t0.Add(2 * time.Second), 100}, {t0.Add(3 * time.Second), 500}}
	got, err := meanBetween(samples, t0.Add(time.Second), t0.Add(2*time.Second))
	if err != nil || got != 90 {
		t.Errorf("mean over the closed span = %v, %v; want 90", got, err)
	}
	if _, err := meanBetween(samples, t0.Add(4*time.Second), t0.Add(5*time.Second)); err == nil {
		t.Error("a span without readings must be an error, not a zero reading")
	}
}

func TestStolen(t *testing.T) {
	steal, total, ok := parseProcStat("cpu  100 0 50 800 5 0 15 30 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if !ok || steal != 30 || total != 1000 {
		t.Errorf("parseProcStat = %d, %d, %v; want 30 of 1000 (guest time is inside user time)", steal, total, ok)
	}
	if _, _, ok := parseProcStat("cpu 1 2 3\n"); ok {
		t.Error("a line without a steal column was accepted")
	}

	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	steals := []stealSample{{at(0), 0, 0}, {at(50), 0, 10}, {at(100), 2, 20}, {at(150), 6, 30}, {at(200), 6, 40}}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{50, 150, 0.3},   // samples on both ends
		{60, 140, 0.3},   // widened to the samples around the span
		{-10, 300, 0.15}, // the nearest samples there are
		{150, 200, 0},
		{300, 400, 0}, // no time between the samples
	} {
		if got := stolenBetween(steals, at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stolen between %d and %d ms = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := stolenBetween(nil, at(0), at(100)); got != 0 {
		t.Errorf("without /proc/stat readings %v of the time was stolen, want 0", got)
	}

	// A box that reads the reference in CPU time and has its CPUs three
	// quarters of the time reads a third more.
	s := &boxSpeed{samples: []speedSample{{at(100), refVerifyUS}}, steals: []stealSample{{at(0), 0, 0}, {at(200), 25, 100}}}
	if got, err := s.Reading(at(50), at(150)); err != nil || math.Abs(got-refVerifyUS/0.75) > 1e-9 {
		t.Errorf("Reading = %v, %v; want %v", got, err, refVerifyUS/0.75)
	}
}

// TestFollowsBox: every end-to-end metric has an entry, and a box twice
// as slow as the reference halves a time and doubles a rate.
func TestFollowsBox(t *testing.T) {
	for _, d := range endToEnd {
		if _, ok := followsBox[d.Name]; !ok {
			t.Errorf("followsBox has no entry for %s", d.Name)
		}
	}
	if len(followsBox) != len(endToEnd) {
		t.Errorf("followsBox has %d entries for %d end-to-end metrics", len(followsBox), len(endToEnd))
	}
	closed, open := workload{InFlight: 5}, workload{Rate: 10}
	for _, c := range []struct {
		metric string
		wl     workload
		want   float64
	}{
		{"commit_p50_ms", closed, 50}, {"commit_p50_ms", open, 50},
		{"committed_tx_per_s", closed, 200}, {"committed_tx_per_s", open, 100},
		{"wire_bytes_per_tx", closed, 100}, {"wire_bytes_per_tx", open, 200},
		{"cluster_rss_mb", closed, 200},
	} {
		if got := atRef(c.metric, c.wl, 100, 2*refVerifyUS); got != c.want {
			t.Errorf("%s = 100 on a box twice as slow as the reference, %+v: %v at the reference, want %v", c.metric, c.wl, got, c.want)
		}
	}
}

// TestEndToEndMetrics: 40 transactions sent 100 ms apart over a 4 s
// window, those of the first 2 s committing after 100 ms and the rest after
// 200 ms, on a box that reads twice the reference throughout. Latencies
// are halved per slice and the median slice reported; the other metrics
// are brought to the reference box as followsBox says for the loop.
func TestEndToEndMetrics(t *testing.T) {
	began := time.Unix(1000, 0)
	speed := &boxSpeed{}
	for at := time.Duration(0); at < 10*time.Second; at += 50 * time.Millisecond {
		speed.samples = append(speed.samples, speedSample{began.Add(at), 2 * refVerifyUS})
	}
	res := &loadgen.Result{Submitted: 40, Lost: make([]bool, 40)}
	for i := 0; i < 40; i++ {
		sent := warmUp + time.Duration(i)*100*time.Millisecond
		lat := 100 * time.Millisecond
		if i >= 20 {
			lat *= 2
		}
		res.SentAt = append(res.SentAt, sent)
		res.Polls = append(res.Polls, loadgen.Poll{At: sent + lat, Applied: uint64(2 + i)})
	}
	w := windowed{began: began, rss: 123, res: res}
	w.ends[0] = sample{status: []cluster.Status{{BlocksCommitted: 5}}}
	w.ends[1] = sample{cpu: 390 * time.Millisecond, bytes: 39000, status: []cluster.Status{{BlocksCommitted: 45}}}
	b := &bench{window: 4 * time.Second, speed: speed}

	// By the window's end 39 transactions are applied: the last one commits
	// after it.
	for _, c := range []struct {
		wl                workload
		perSec, cpu, wire float64
	}{
		{workload{Rate: 10}, 39.0 / 4, 10, 2000},
		{workload{InFlight: 5}, 2 * 39.0 / 4, 5, 1000},
	} {
		m, lat, _, err := b.endToEndMetrics(c.wl, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(lat) != 40 || lat[0] != 100*time.Millisecond || lat[39] != 200*time.Millisecond {
			t.Errorf("window latencies: %d from %v to %v, want 40 from 100ms to 200ms", len(lat), lat[0], lat[len(lat)-1])
		}
		want := map[string]float64{
			"commit_p50_ms":      100, // slices read 50 50 100 100; the upper of an even count
			"commit_p95_ms":      100,
			"committed_tx_per_s": c.perSec,
			"cpu_ms_per_tx":      c.cpu,
			"wire_bytes_per_tx":  c.wire,
			"cluster_rss_mb":     246,
			boxMetric.Name:       2 * refVerifyUS,
		}
		for name, v := range want {
			if got := m[name]; math.Abs(got-v) > 1e-9 {
				t.Errorf("%+v: %s = %v, want %v", c.wl, name, got, v)
			}
		}
	}

	b.speed = &boxSpeed{}
	if _, _, _, err := b.endToEndMetrics(workload{Rate: 10}, w); err == nil {
		t.Error("metrics were reported without a box-speed reading")
	}
}

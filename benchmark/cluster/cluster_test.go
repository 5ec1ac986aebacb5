package cluster

import (
	"strings"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	stat := "4242 (zlb node) x) S 1 4242 4242 0 -1 4194560 2650 0 0 0 731 269 0 0 20 0 9 0 8675309 1 2 3"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 * time.Second; got != want { // (731+269) ticks at 100 Hz
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Fatal("a truncated stat line parsed")
	}
}

func TestParseVmRSS(t *testing.T) {
	got, err := parseVmRSS("Name:\tzlb-node\nVmPeak:\t  999 kB\nVmRSS:\t  153600 kB\nThreads:\t9\n")
	if err != nil {
		t.Fatal(err)
	}
	if got != 150<<20 {
		t.Fatalf("rss = %d, want 150 MiB", got)
	}
	if _, err := parseVmRSS("Name:\tzlb-node\n"); err == nil {
		t.Fatal("a status file without VmRSS parsed")
	}
}

func TestParseMetrics(t *testing.T) {
	body := `# HELP zlb_height Committed chain height of this replica.
# TYPE zlb_height gauge
zlb_height 312
zlb_commit_latency_seconds_bucket{le="0.05"} 200
zlb_commit_latency_seconds_sum 12.75
zlb_commit_latency_seconds_count 312
zlb_peer_sent_bytes_total{peer="2"} 1.5e+06
`
	m, err := ParseMetrics(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"zlb_height": 312,
		`zlb_commit_latency_seconds_bucket{le="0.05"}`: 200,
		"zlb_commit_latency_seconds_sum":               12.75,
		`zlb_peer_sent_bytes_total{peer="2"}`:          1.5e6,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	if _, err := ParseMetrics(strings.NewReader("zlb_height notanumber\n")); err == nil {
		t.Fatal("a malformed sample parsed")
	}
}

func TestFreePorts(t *testing.T) {
	addrs, err := freePorts(8)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, a := range addrs {
		if seen[a] || !strings.HasPrefix(a, "127.0.0.1:") {
			t.Fatalf("addresses %v", addrs)
		}
		seen[a] = true
	}
}

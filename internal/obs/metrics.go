package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a small dependency-free metrics registry rendering the
// Prometheus text exposition format. Registration happens at setup time
// (mutex-guarded). Counters and gauges are functions sampled at scrape
// time, which must be safe to call from the scraping goroutine while the
// node's event loop runs; histogram observations are lock-free atomics.
type Metrics struct {
	mu     sync.Mutex
	series []*series
}

// series is one registered sample: a family name plus one label set.
type series struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels string // rendered `{k="v",...}` or ""

	fn   func() float64
	hist *Histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Histogram is a fixed-bucket histogram (cumulative buckets in the
// exposition, per Prometheus convention). Observations are lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound; +Inf is count-sum of the rest
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// renderLabels turns k,v pairs into a deterministic `{k="v",...}` block.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	parts := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

func (m *Metrics) add(s *series) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.series = append(m.series, s)
}

// GaugeFunc registers a gauge sampled by calling fn at scrape time. kv
// are label key,value pairs.
func (m *Metrics) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	m.add(&series{name: name, help: help, typ: "gauge", labels: renderLabels(kv), fn: fn})
}

// CounterFunc registers a counter sampled by calling fn at scrape time:
// a monotone count its owner maintains (e.g. mempool admission
// statistics).
func (m *Metrics) CounterFunc(name, help string, fn func() float64, kv ...string) {
	m.add(&series{name: name, help: help, typ: "counter", labels: renderLabels(kv), fn: fn})
}

// Histogram registers a histogram with the given upper bucket bounds
// (ascending; +Inf is implicit).
func (m *Metrics) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(h.bounds))
	m.add(&series{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// formatFloat renders a sample value the way Prometheus clients do:
// integers without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered series in the text exposition
// format, sorted by family name then label set for a deterministic body.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	ordered := make([]*series, len(m.series))
	copy(ordered, m.series)
	m.mu.Unlock()
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].name != ordered[j].name {
			return ordered[i].name < ordered[j].name
		}
		return ordered[i].labels < ordered[j].labels
	})
	var b strings.Builder
	lastFamily := ""
	for _, s := range ordered {
		if s.name != lastFamily {
			fmt.Fprintf(&b, "# HELP %s %s\n", s.name, s.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.typ)
			lastFamily = s.name
		}
		switch {
		case s.fn != nil:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, s.labels, formatFloat(s.fn()))
		case s.hist != nil:
			h := s.hist
			cum := uint64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", s.name, formatFloat(bound), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", s.name, h.count.Load())
			fmt.Fprintf(&b, "%s_sum %s\n", s.name, formatFloat(math.Float64frombits(h.sum.Load())))
			fmt.Fprintf(&b, "%s_count %d\n", s.name, h.count.Load())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

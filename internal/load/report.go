package load

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/zeroloss/zlb"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/types"
)

// rejectColumns is the fixed order reject reasons appear in reports.
var rejectColumns = []string{"fee", "rate", "cap", "full", "replace", "dup", "committed", "other"}

// txRecord tracks one submitted transaction from arrival to block
// inclusion at the observing replica.
type txRecord struct {
	phase, class int
	submit       time.Duration
	commit       time.Duration // zero until included in a committed block
}

// recorder accumulates the run's raw observations. The mutex guards the
// map against the commit callback; in the simulated deployment the
// driver and the event loop alternate, but -race runs deserve the fence.
type recorder struct {
	mu    sync.Mutex
	byID  map[types.Digest]*txRecord
	order []types.Digest // submission order, the deterministic iteration
	// starvedCnt / rejected are indexed [phase][class].
	starvedCnt [][]int
	rejected   []map[string]int // keyed by (phase, class, reason)
	phases     int
	classes    int
	// committed counts the submitted transactions committed so far.
	committed int
}

func newRecorder(phases, classes int) *recorder {
	r := &recorder{
		byID:       make(map[types.Digest]*txRecord),
		starvedCnt: make([][]int, phases),
		phases:     phases,
		classes:    classes,
	}
	for i := range r.starvedCnt {
		r.starvedCnt[i] = make([]int, classes)
	}
	r.rejected = make([]map[string]int, phases*classes)
	for i := range r.rejected {
		r.rejected[i] = make(map[string]int)
	}
	return r
}

func (r *recorder) cell(phase, class int) int { return phase*r.classes + class }

func (r *recorder) starved(phase, class int) {
	r.starvedCnt[phase][class]++
}

func (r *recorder) submitted(phase, class int, id types.Digest, at time.Duration, verdict error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if verdict != nil {
		r.rejected[r.cell(phase, class)][rejectReason(verdict)]++
		return
	}
	if _, dup := r.byID[id]; dup {
		return
	}
	r.byID[id] = &txRecord{phase: phase, class: class, submit: at}
	r.order = append(r.order, id)
}

// onCommit is the cluster's OnCommittedBatch observer: the first block
// that includes a submitted transaction stamps its commit time.
func (r *recorder) onCommit(_ uint64, txs []*zlb.Transaction, at time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, tx := range txs {
		if rec, ok := r.byID[tx.ID()]; ok && rec.commit == 0 {
			rec.commit = at
			r.committed++
		}
	}
}

// Committed counts the submitted payments committed so far, each once,
// however many proposals carried it.
func (d *Driver) Committed() int {
	d.rec.mu.Lock()
	defer d.rec.mu.Unlock()
	return d.rec.committed
}

// PhaseClassStats is one report row: what one class experienced during
// one phase. Latency percentiles cover the transactions submitted in
// the phase that were eventually included in a committed block (commits
// may land in a later phase or the drain window).
type PhaseClassStats struct {
	Phase     string         `json:"phase"`
	Class     string         `json:"class"`
	Submitted int            `json:"submitted"` // admitted + rejected
	Starved   int            `json:"starved,omitempty"`
	Admitted  int            `json:"admitted"`
	Rejected  map[string]int `json:"rejected,omitempty"`
	Committed int            `json:"committed"`
	P50       time.Duration  `json:"p50_ns"`
	P99       time.Duration  `json:"p99_ns"`
	P999      time.Duration  `json:"p999_ns"`
}

// Report is one open-loop run's deterministic result.
type Report struct {
	Name string `json:"name"`
	// Variant is "admission" when the pools enforce an admission policy,
	// "baseline" when they queue in arrival order.
	Variant string `json:"variant,omitempty"`
	N       int    `json:"n"`
	Seed    int64  `json:"seed"`
	Policy  string `json:"policy"`
	// Rows is phase-major, class-minor.
	Rows []PhaseClassStats `json:"rows"`
	// Height is the observer's committed block count; PoolPending and
	// PoolEvictions are its mempool occupancy and cumulative evictions
	// at the end of the drain window.
	Height        int    `json:"height"`
	PoolPending   int    `json:"pool_pending"`
	PoolEvictions uint64 `json:"pool_evictions"`
}

// Report reads the finished run's latency report under the campaign's
// name: the cluster's chain height and its observer's pool at the time
// of the call, and every recorded submission.
func (d *Driver) Report(name string) *Report {
	r := d.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	lats := make([][]time.Duration, r.phases*r.classes)
	admitted := make([]int, r.phases*r.classes)
	committed := make([]int, r.phases*r.classes)
	// r.order is submission order; latencies within one (phase, class)
	// cell are therefore appended deterministically. Sorting for the
	// percentile rank is done per cell below.
	for _, id := range r.order {
		rec := r.byID[id]
		c := r.cell(rec.phase, rec.class)
		admitted[c]++
		if rec.commit > 0 {
			committed[c]++
			lats[c] = append(lats[c], rec.commit-rec.submit)
		}
	}
	rep := &Report{
		Name:    name,
		Variant: "admission",
		N:       d.n,
		Seed:    d.seed,
		Policy:  describePolicy(d.w.Policy),
	}
	if d.w.Policy == (mempool.Policy{}) {
		rep.Variant = "baseline"
	}
	for pi, phase := range d.phases {
		for ci, cl := range d.w.Classes {
			c := r.cell(pi, ci)
			rejects := 0
			for _, n := range r.rejected[c] {
				rejects += n
			}
			sorted := append([]time.Duration(nil), lats[c]...)
			sortDurations(sorted)
			row := PhaseClassStats{
				Phase:     phase,
				Class:     cl.Name,
				Submitted: admitted[c] + rejects,
				Starved:   r.starvedCnt[pi][ci],
				Admitted:  admitted[c],
				Committed: committed[c],
				P50:       Percentile(sorted, 0.50),
				P99:       Percentile(sorted, 0.99),
				P999:      Percentile(sorted, 0.999),
			}
			if rejects > 0 {
				row.Rejected = r.rejected[c]
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Height = d.Cluster.Height()
	pending, _, evictions := d.Cluster.MempoolStats()
	rep.PoolPending = pending
	rep.PoolEvictions = evictions
	return rep
}

// sortDurations sorts ascending — the percentile contract.
func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// Percentile returns the nearest-rank percentile of an ascending-sorted
// latency slice (q in (0,1]); zero when the slice is empty.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// describePolicy renders an admission policy compactly and
// deterministically for report headers.
func describePolicy(p mempool.Policy) string {
	var parts []string
	if p.MaxTxs > 0 {
		parts = append(parts, fmt.Sprintf("max=%d", p.MaxTxs))
	}
	if p.MaxBytes > 0 {
		parts = append(parts, fmt.Sprintf("maxbytes=%d", p.MaxBytes))
	}
	if p.MaxPerAccount > 0 {
		parts = append(parts, fmt.Sprintf("acct=%d", p.MaxPerAccount))
	}
	if p.RatePerAccount > 0 {
		parts = append(parts, fmt.Sprintf("rate=%d/%s", p.RatePerAccount, p.RateWindow))
	}
	if p.MinFee > 0 {
		parts = append(parts, fmt.Sprintf("minfee=%d", p.MinFee))
	}
	if p.ReplaceBumpPct > 0 {
		parts = append(parts, fmt.Sprintf("bump=%d%%", p.ReplaceBumpPct))
	}
	if p.PriorityOrder {
		parts = append(parts, "prio")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// msCell formats a latency for the fixed-layout table; a dash marks "no
// committed transactions in this cell".
func msCell(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// Format renders the fixed-layout report the goldens pin. Everything in
// it derives from virtual-time measurements, so the bytes are identical
// for a fixed seed at any GOMAXPROCS.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "open-loop %s", r.Name)
	if r.Variant != "" {
		fmt.Fprintf(&b, " [%s]", r.Variant)
	}
	fmt.Fprintf(&b, " n=%d seed=%d policy=%s\n", r.N, r.Seed, r.Policy)
	fmt.Fprintf(&b, "%-14s %-10s %7s %7s %7s %7s %9s %9s %9s\n",
		"phase", "class", "sub", "rej", "com", "uncom", "p50ms", "p99ms", "p999ms")
	for _, row := range r.Rows {
		rejects := 0
		for _, n := range row.Rejected {
			rejects += n
		}
		fmt.Fprintf(&b, "%-14s %-10s %7d %7d %7d %7d %9s %9s %9s\n",
			row.Phase, row.Class, row.Submitted, rejects, row.Committed,
			row.Admitted-row.Committed, msCell(row.P50), msCell(row.P99), msCell(row.P999))
	}
	// Reject totals per reason, fixed column order, zero columns elided.
	totals := make(map[string]int)
	starved := 0
	for _, row := range r.Rows {
		for reason, n := range row.Rejected {
			totals[reason] += n
		}
		starved += row.Starved
	}
	var rejParts []string
	for _, reason := range rejectColumns {
		if totals[reason] > 0 {
			rejParts = append(rejParts, fmt.Sprintf("%s=%d", reason, totals[reason]))
		}
	}
	if len(rejParts) > 0 {
		fmt.Fprintf(&b, "rejects: %s\n", strings.Join(rejParts, " "))
	}
	if starved > 0 {
		fmt.Fprintf(&b, "starved: %d\n", starved)
	}
	fmt.Fprintf(&b, "height=%d pool=%d evictions=%d\n",
		r.Height, r.PoolPending, r.PoolEvictions)
	return b.String()
}

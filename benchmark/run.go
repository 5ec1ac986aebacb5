package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/zeroloss/zlb/benchmark/cluster"
	"github.com/zeroloss/zlb/benchmark/loadgen"
	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/types"
)

// Per-phase time limits.
const (
	startLimit    = 20 * time.Second // spawn until every /status answers
	fanOutLimit   = 10 * time.Second // set-up transaction applied everywhere
	settleLimit   = 5 * time.Second  // followers reach the observed replica's count
	shutdownLimit = 10 * time.Second // graceful stop before SIGKILL
)

// bench is what every run of one invocation shares.
type bench struct {
	nodeBinary string
	// workDir holds each run's node logs, data directories and profiles;
	// main removes it on exit.
	workDir string
	seed    int64
	window  time.Duration
	runs    int // numbers run directories
	// speed reads the box's speed all through the invocation.
	speed *boxSpeed
}

// outcome is one run's metrics and operation counts.
type outcome struct {
	Metrics   map[string]float64
	Attempted int
	Failed    int
	// Notes are facts about the run worth a line of the report.
	Notes []string
}

// env is one set-up cluster with its pre-signed plan.
type env struct {
	c    *cluster.Cluster
	plan *loadgen.Plan
	dir  string
}

// setUp spawns a cluster, pre-signs the run and has the fan-out
// transaction applied on every node.
func (b *bench) setUp(ctx context.Context, wl workload, traffic time.Duration) (*env, error) {
	b.runs++
	e := &env{dir: filepath.Join(b.workDir, fmt.Sprintf("%s-%d", wl.Name, b.runs))}
	startCtx, cancel := context.WithTimeout(ctx, startLimit)
	c, err := cluster.Start(startCtx, cluster.Config{
		Binary:     b.nodeBinary,
		N:          clusterSize,
		Seed:       b.seed,
		Dir:        e.dir,
		Durable:    wl.Durable,
		GOMAXPROCS: nodeProcs(),
	})
	cancel()
	if err != nil {
		return nil, err
	}
	e.c = c

	var due []time.Duration
	count := int(presignRate * traffic.Seconds())
	if wl.Rate > 0 {
		due = loadgen.Poisson(b.seed, wl.Rate, traffic)
		count = len(due)
	}
	if e.plan, err = loadgen.NewPlan(b.seed, count, runtime.NumCPU()); err == nil {
		e.plan.Due = due
		fanCtx, cancel := context.WithTimeout(ctx, fanOutLimit)
		if err = loadgen.Submit(fanCtx, e.addrs(), e.plan.Setup); err == nil {
			err = e.awaitApplied(fanCtx, 1)
		}
		cancel()
	}
	if err != nil {
		e.fail()
		return nil, err
	}
	return e, nil
}

func (e *env) addrs() []string {
	out := make([]string, len(e.c.Nodes))
	for i, nd := range e.c.Nodes {
		out[i] = nd.Addr
	}
	return out
}

// awaitApplied waits until every node has applied exactly want
// transactions; a node that has applied more is an error.
func (e *env) awaitApplied(ctx context.Context, want uint64) error {
	for {
		sts, err := e.c.StatusAll(ctx)
		if err != nil {
			return err
		}
		done := true
		have := make([]uint64, len(sts))
		for i, st := range sts {
			if st.TxsApplied > want {
				return fmt.Errorf("node %d applied %d transactions, %d were submitted", i+1, st.TxsApplied, want)
			}
			done = done && st.TxsApplied == want
			have[i] = st.TxsApplied
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for every node to apply %d transactions (have %v): %w", want, have, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// fail reports the nodes' last words and kills the cluster.
func (e *env) fail() {
	fmt.Fprint(os.Stderr, e.c.LogTails(15))
	e.c.Kill()
}

// drop kills the cluster and removes its directory.
func (e *env) drop() {
	e.c.Kill()
	os.RemoveAll(e.dir)
}

// sample is the cluster-wide state the window's ends are compared by.
type sample struct {
	cpu    time.Duration // Σ node user+system time
	bytes  uint64        // Σ bytes delivered to peers
	frames uint64
	status []cluster.Status
}

func (e *env) sample(ctx context.Context) (sample, error) {
	var s sample
	sts, err := e.c.StatusAll(ctx)
	if err != nil {
		return s, err
	}
	s.status = sts
	for i := range sts {
		by, fr := sts[i].SentBytes()
		s.bytes += by
		s.frames += fr
		cpu, err := e.c.CPUTime(i + 1)
		if err != nil {
			return s, err
		}
		s.cpu += cpu
	}
	return s, nil
}

func (e *env) rssMB() (float64, error) {
	var total int64
	for i := range e.c.Nodes {
		rss, err := e.c.RSSBytes(i + 1)
		if err != nil {
			return 0, err
		}
		total += rss
	}
	return float64(total) / (1 << 20), nil
}

// traffic runs the workload's traffic against e for warmUp+window, then
// the drain. observe runs on its own goroutine while traffic flows and is
// told when traffic starts.
func (b *bench) traffic(ctx context.Context, e *env, wl workload, window time.Duration, observe func(start time.Time) error) (*loadgen.Result, error) {
	start := time.Now().Add(20 * time.Millisecond)
	obsErr := make(chan error, 1) // the observer goroutine's single result
	go func() { obsErr <- observe(start) }()
	res, err := loadgen.Run(ctx, loadgen.Config{
		Addrs: e.addrs(),
		Applied: func(ctx context.Context) (uint64, error) {
			st, err := e.c.Status(ctx, 1)
			return st.TxsApplied, err
		},
		Plan:     e.plan,
		Shard:    wl.Shard,
		InFlight: wl.InFlight,
		Base:     1, // the fan-out transaction
		Start:    start,
		SendFor:  warmUp + window,
		DrainFor: drainLimit,
	})
	if oerr := <-obsErr; err == nil {
		err = oerr
	}
	return res, err
}

// sleepUntil waits for the instant or for ctx to end.
func sleepUntil(ctx context.Context, at time.Time) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(time.Until(at)):
		return nil
	}
}

// check is the correctness gate after the drain: every node at the same
// height with exactly the submitted transactions applied, and no frame
// or event lost inside a node.
func (e *env) check(ctx context.Context, res *loadgen.Result) error {
	if res.Unapplied > 0 {
		return fmt.Errorf("%d of %d submitted transactions not applied %v after the window", res.Unapplied, res.Submitted+res.Fillers, drainLimit)
	}
	ctx, cancel := context.WithTimeout(ctx, settleLimit)
	defer cancel()
	if err := e.awaitApplied(ctx, uint64(1+res.Submitted+res.Fillers)); err != nil {
		return err
	}
	sts, err := e.c.StatusAll(ctx)
	if err != nil {
		return err
	}
	for i, st := range sts {
		if st.Height != sts[0].Height {
			return fmt.Errorf("node %d is at height %d, node 1 at %d", i+1, st.Height, sts[0].Height)
		}
		if t := st.Transport; t.SendDrops != 0 || t.EventsDropped != 0 || t.DecodeErrors != 0 {
			return fmt.Errorf("node %d transport lost work: send_drops=%d events_dropped=%d decode_errors=%d",
				i+1, t.SendDrops, t.EventsDropped, t.DecodeErrors)
		}
	}
	return nil
}

// finish ends a measured run: given the traffic's outcome it applies the
// correctness gate and the shutdown checks, and on any failure reports
// the nodes' last words.
func (e *env) finish(ctx context.Context, wl workload, res *loadgen.Result, err error) error {
	if err == nil {
		err = e.check(ctx, res)
	}
	if err == nil {
		err = e.stopAndVerify(ctx, wl.Durable, res.Submitted+res.Fillers)
	}
	if err != nil {
		e.fail()
	}
	return err
}

// stopAndVerify shuts the cluster down gracefully and, on a durable
// workload, reopens every data directory the way a restarting node does:
// every recovered chain must hold the same blocks and a ledger that has
// applied every payment.
func (e *env) stopAndVerify(ctx context.Context, durable bool, payments int) error {
	stopCtx, cancel := context.WithTimeout(ctx, shutdownLimit)
	e.c.Stop(stopCtx)
	cancel()
	if !durable {
		return nil
	}
	var first map[uint64]types.Digest
	for _, nd := range e.c.Nodes {
		st, err := store.Open(nd.DataDir, store.Options{CheckpointEvery: 16, Fsync: true})
		if err != nil {
			return fmt.Errorf("reopening node %d's store: %w", nd.ID, err)
		}
		ledger, err := st.Recover(e.plan.Scheme(), func(l *bm.Ledger) { l.Genesis(e.plan.Genesis()) })
		cerr := st.Close()
		if err != nil {
			return fmt.Errorf("recovering node %d's chain: %w", nd.ID, err)
		}
		if cerr != nil {
			return fmt.Errorf("closing node %d's store: %w", nd.ID, cerr)
		}
		if got := ledger.Table().Balance(e.plan.Recipient()); got != types.Amount(payments) {
			return fmt.Errorf("node %d's recovered ledger applied %d payments of %d", nd.ID, got, payments)
		}
		digests := ledger.BlockDigests()
		if first == nil {
			first = digests
			continue
		}
		if len(digests) != len(first) {
			return fmt.Errorf("node %d recovered %d blocks, node 1 recovered %d", nd.ID, len(digests), len(first))
		}
		for k, d := range digests {
			if first[k] != d {
				return fmt.Errorf("node %d recovered a different block %d than node 1", nd.ID, k)
			}
		}
	}
	return nil
}

// windowed is what a run's traffic left behind for the end-to-end metrics.
type windowed struct {
	began time.Time // the start of traffic; the window opens warmUp later
	ends  [2]sample // the cluster at the two ends of the window
	rss   float64   // at the end of the window
	res   *loadgen.Result
}

// median returns the middle value of a non-empty sample (the upper one
// of an even count) and sorts it.
func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// endToEndMetrics turns a run's observations into the end-to-end metrics
// other than setup_s, each brought to the reference box the way followsBox
// says, and the latencies of the whole window, ascending and as measured.
//
// A latency percentile is taken over the transactions sent in each
// latencySlice of the window, brought to the reference box with the
// reading over the time those transactions were in flight, and the median
// over the slices is reported: a slow stretch of the box is met with its
// own reading, and a stall that hits one slice does not set the 95th
// percentile of the whole run.
func (b *bench) endToEndMetrics(wl workload, w windowed) (map[string]float64, []time.Duration, []string, error) {
	t1, t2 := warmUp, warmUp+b.window
	committedAt := loadgen.Attribute(w.res.Lost, 1, w.res.Polls)
	lat := loadgen.Latencies(w.res.SentAt, committedAt, t1, t2)
	committed := float64(loadgen.AppliedAt(1, w.res.Polls, t2) - loadgen.AppliedAt(1, w.res.Polls, t1))
	if committed == 0 || len(lat) == 0 {
		return nil, nil, nil, fmt.Errorf("no transaction committed inside the window")
	}
	var p50s, p95s []float64
	for from := t1; from < t2; from += latencySlice {
		to := min(from+latencySlice, t2)
		in := loadgen.Latencies(w.res.SentAt, committedAt, from, to)
		if len(in) == 0 {
			continue
		}
		p50, p95 := loadgen.Percentile(in, 0.50), loadgen.Percentile(in, 0.95)
		us, err := b.speed.Reading(w.began.Add(from), w.began.Add(to+p95))
		if err != nil {
			return nil, nil, nil, err
		}
		p50s = append(p50s, atRef("commit_p50_ms", wl, loadgen.Millis(p50), us))
		p95s = append(p95s, atRef("commit_p95_ms", wl, loadgen.Millis(p95), us))
	}
	us, err := b.speed.Reading(w.began.Add(t1), w.began.Add(t2))
	if err != nil {
		return nil, nil, nil, err
	}
	asMeasured := map[string]float64{
		"committed_tx_per_s": committed / b.window.Seconds(),
		"commit_p50_ms":      loadgen.Millis(loadgen.Percentile(lat, 0.50)),
		"commit_p95_ms":      loadgen.Millis(loadgen.Percentile(lat, 0.95)),
		"wire_bytes_per_tx":  float64(w.ends[1].bytes-w.ends[0].bytes) / committed,
		"cpu_ms_per_tx":      loadgen.Millis(w.ends[1].cpu-w.ends[0].cpu) / committed,
		"cluster_rss_mb":     w.rss,
	}
	m := map[string]float64{boxMetric.Name: us}
	note := fmt.Sprintf("box: %.4g us per verification over the window (%.2g %% of it stolen by the host), reference %.4g; as measured:",
		us, 100*b.speed.Stolen(w.began.Add(t1), w.began.Add(t2)), refVerifyUS)
	for _, d := range endToEnd {
		if v, ok := asMeasured[d.Name]; ok {
			m[d.Name] = atRef(d.Name, wl, v, us)
			note += fmt.Sprintf(" %s %.6g", d.Name, v)
		}
	}
	m["commit_p50_ms"], m["commit_p95_ms"] = median(p50s), median(p95s)
	return m, lat, []string{
		fmt.Sprintf("latency samples: %d in %d slices of %v", len(lat), len(p50s), latencySlice),
		note,
		fmt.Sprintf("blocks in window: %d", w.ends[1].status[0].BlocksCommitted-w.ends[0].status[0].BlocksCommitted),
	}, nil
}

// runUntraced measures the end-to-end metrics of one workload.
func (b *bench) runUntraced(ctx context.Context, wl workload) (*outcome, error) {
	trafficFor := warmUp + b.window
	var e *env
	setups := make([]float64, 0, setUps) // brought to the reference box
	var setupNote strings.Builder
	for i := 0; i < setUps; i++ {
		if e != nil {
			e.drop()
		}
		t0 := time.Now()
		var err error
		if e, err = b.setUp(ctx, wl, trafficFor); err != nil {
			return nil, err
		}
		t1 := time.Now()
		us, err := b.speed.Reading(t0, t1)
		if err != nil {
			e.drop()
			return nil, err
		}
		setups = append(setups, atRef("setup_s", wl, t1.Sub(t0).Seconds(), us))
		fmt.Fprintf(&setupNote, " %.3f s at %.3g us", t1.Sub(t0).Seconds(), us)
	}
	defer e.drop()

	var w windowed
	var err error
	w.res, err = b.traffic(ctx, e, wl, b.window, func(start time.Time) error {
		w.began = start
		err := sleepUntil(ctx, start.Add(warmUp))
		if err == nil {
			w.ends[0], err = e.sample(ctx)
		}
		if err == nil {
			err = sleepUntil(ctx, start.Add(warmUp+b.window))
		}
		if err == nil {
			w.ends[1], err = e.sample(ctx)
		}
		if err == nil {
			w.rss, err = e.rssMB()
		}
		return err
	})
	if err := e.finish(ctx, wl, w.res, err); err != nil {
		return nil, err
	}
	m, _, notes, err := b.endToEndMetrics(wl, w)
	if err != nil {
		return nil, err
	}
	m["setup_s"] = median(setups)
	out := &outcome{
		Metrics:   m,
		Attempted: w.res.Submitted,
		Failed:    w.res.Refused,
		Notes:     append(notes, "set-ups as measured, in order:"+setupNote.String()),
	}
	if w.res.Fillers > 0 {
		out.Notes = append(out.Notes, fmt.Sprintf("drain fillers: %d", w.res.Fillers))
	}
	if w.res.SignedLate > 0 {
		out.Notes = append(out.Notes, fmt.Sprintf("signed inside the run: %d (plan sized for %d tx/s)", w.res.SignedLate, presignRate))
	}
	return out, nil
}

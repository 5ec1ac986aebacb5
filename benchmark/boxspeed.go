package main

import (
	"crypto/ed25519"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// speedEvery is the period of each box-speed probe and speedBatch the
	// signature verifications it makes each time: about 0.3 ms of CPU every
	// 10 ms on every core, the same on every run of every commit.
	speedEvery = 10 * time.Millisecond
	speedBatch = 4
	// stealEvery is the period at which /proc/stat is read for the time the
	// hypervisor ran something else on this box's CPUs.
	stealEvery = 50 * time.Millisecond
	// refVerifyUS is the probe reading of the reference box: about what the
	// probe reads on the builder's 2-vCPU box while a cluster runs on it,
	// so that there a metric brought to the reference box is close to the
	// one measured.
	refVerifyUS = 85.0
)

// speedSample is one reading of a box-speed probe.
type speedSample struct {
	at time.Time
	us float64 // thread CPU microseconds per verification
}

// stealSample is one reading of /proc/stat: ticks, since boot and over all
// CPUs, that the hypervisor gave to something else, and ticks in all.
type stealSample struct {
	at           time.Time
	steal, total uint64
}

// boxSpeed reads, all through an invocation, how long this box takes for
// a fixed piece of work: one ed25519 verification by the standard library
// (not by this repository's crypto package, so no change to the
// repository moves it), the operation the nodes spend three quarters of
// their CPU in. One probe per core, pinned to it, times a few
// verifications every 10 ms in its thread's own CPU time, so waiting for
// the core does not count. Thread CPU time does not run while the
// hypervisor has taken the CPU away, so the share of time stolen is read
// from /proc/stat beside it; a reading is the CPU time of a verification
// divided by the share of time the box had its CPUs.
//
// The benchmark runs on a few cores of a shared host, where the same
// binary does the same work at up to twice the cost from one minute to
// the next; every metric that follows the box is brought to the reference
// box with the reading taken while it was measured (followsBox, atRef).
type boxSpeed struct {
	stop   chan struct{}
	probes sync.WaitGroup

	mu      sync.Mutex
	samples []speedSample
	steals  []stealSample // in time order
}

func startBoxSpeed() *boxSpeed {
	s := &boxSpeed{stop: make(chan struct{})}
	for core := 0; core < runtime.NumCPU(); core++ {
		s.probes.Add(1)
		go s.probe(core)
	}
	s.probes.Add(1)
	go s.watchSteal()
	return s
}

// Stop ends the probes and waits for them.
func (s *boxSpeed) Stop() {
	close(s.stop)
	s.probes.Wait()
}

// threadCPU reads the calling thread's CPU time. getrusage(RUSAGE_THREAD)
// would do without unsafe, but it is brought up to date only at scheduler
// ticks; this clock is exact.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID in <linux/time.h>
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0 // no sample; Reading reports a span without samples
	}
	return time.Duration(ts.Nano())
}

func (s *boxSpeed) probe(core int) {
	defer s.probes.Done()
	// Thread CPU time is read around the work, so the goroutine stays on
	// one thread; the thread ends with the goroutine, so its affinity is
	// not handed on.
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs, the kernel's default limit
	mask[core/64%len(mask)] = 1 << (core % 64)
	// An unpinned probe still reads the box, only less evenly: ignore a refusal.
	_, _, _ = syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))

	pub, priv, _ := ed25519.GenerateKey(zeroReader{}) // a fixed key; reading zeros cannot fail
	msg := make([]byte, 64)
	sig := ed25519.Sign(priv, msg)
	tick := time.NewTicker(speedEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		c0 := threadCPU()
		for i := 0; i < speedBatch; i++ {
			ed25519.Verify(pub, msg, sig)
		}
		c1 := threadCPU()
		if c1 <= c0 {
			continue
		}
		s.mu.Lock()
		s.samples = append(s.samples, speedSample{time.Now(), float64(c1-c0) / float64(time.Microsecond) / speedBatch})
		s.mu.Unlock()
	}
}

// watchSteal reads /proc/stat until Stop. A box whose /proc/stat cannot be
// read or has no steal column is read as one that loses no time.
func (s *boxSpeed) watchSteal() {
	defer s.probes.Done()
	tick := time.NewTicker(stealEvery)
	defer tick.Stop()
	for {
		raw, err := os.ReadFile("/proc/stat")
		if err == nil {
			if steal, total, ok := parseProcStat(string(raw)); ok {
				s.mu.Lock()
				s.steals = append(s.steals, stealSample{time.Now(), steal, total})
				s.mu.Unlock()
			}
		}
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// parseProcStat returns the steal ticks and the sum of all ticks of the
// first line of /proc/stat: "cpu user nice system idle iowait irq softirq
// steal guest guest_nice"; guest time is part of user time already.
func parseProcStat(stat string) (steal, total uint64, ok bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// Reading returns what the box read over [from, to]: the microseconds of
// wall time one verification's worth of CPU work took, which is the mean
// CPU time the probes measured divided by the share of the span the box
// had its CPUs. Slow stretches come in bursts, so the mean follows what the
// nodes lose to them where a median would drop them.
func (s *boxSpeed) Reading(from, to time.Time) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	us, err := meanBetween(s.samples, from, to)
	if err != nil {
		return 0, err
	}
	return us / (1 - stolenBetween(s.steals, from, to)), nil
}

// Stolen returns the share of [from, to] the hypervisor ran something
// else on this box's CPUs, for the run's report.
func (s *boxSpeed) Stolen(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stolenBetween(s.steals, from, to)
}

func meanBetween(samples []speedSample, from, to time.Time) (float64, error) {
	sum, n := 0.0, 0
	for _, sm := range samples {
		if !sm.at.Before(from) && !sm.at.After(to) {
			sum += sm.us
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("the box-speed probe took no reading in the %v from %s", to.Sub(from), from.Format("15:04:05.000"))
	}
	return sum / float64(n), nil
}

// stolenBetween returns the share of CPU time stolen between the last
// sample at or before from and the first at or after to (the nearest there
// are), and 0 when the samples do not span any time.
func stolenBetween(steals []stealSample, from, to time.Time) float64 {
	if len(steals) == 0 {
		return 0
	}
	i := sort.Search(len(steals), func(i int) bool { return steals[i].at.After(from) })
	j := sort.Search(len(steals), func(j int) bool { return !steals[j].at.Before(to) })
	a, b := steals[max(i-1, 0)], steals[min(j, len(steals)-1)]
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	// Capped, so that a span stolen almost whole does not divide by nothing.
	return min(float64(b.steal-a.steal)/float64(b.total-a.total), 0.9)
}

// followsBox says how each end-to-end metric moves when the box gets
// slower, on a closed and on an open loop: +1 it grows in proportion (a
// time), -1 it shrinks in proportion (a rate), 0 it stays. The README
// gives the mechanism behind every entry and the exponents measured.
//
// On a closed loop the cluster sets the pace: latency and CPU per
// transaction are times, throughput is a rate, bytes per transaction are
// payload. On an open loop the generator sets the rate and instances run
// back to back whatever the box's speed, so throughput and CPU per
// transaction stay, while the number of instances per second, and with it
// the per-instance frames each transaction is charged, is a rate. Resident
// memory grows with the instances and transactions a window got through
// (the nodes retire none of them), a rate on both.
var followsBox = map[string]struct{ closed, open int }{
	"setup_s":            {+1, +1},
	"committed_tx_per_s": {-1, 0},
	"commit_p50_ms":      {+1, +1},
	"commit_p95_ms":      {+1, +1},
	"wire_bytes_per_tx":  {0, -1},
	"cpu_ms_per_tx":      {+1, 0},
	"cluster_rss_mb":     {-1, -1},
}

// atRef brings a value of the named end-to-end metric, measured on the
// workload while the probes read us microseconds per verification, to the
// reference box: a time measured on a box twice as slow as the reference
// is halved, a rate doubled.
func atRef(metric string, wl workload, v, us float64) float64 {
	e := followsBox[metric].closed
	if wl.Rate > 0 {
		e = followsBox[metric].open
	}
	switch e {
	case +1:
		return v * refVerifyUS / us
	case -1:
		return v * us / refVerifyUS
	}
	return v
}

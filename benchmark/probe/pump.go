package probe

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"github.com/zeroloss/zlb/benchmark/loadgen"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// delivery is one queued message.
type delivery struct {
	to, from types.ReplicaID
	msg      simnet.Message
}

type pumpTimer struct {
	id      simnet.TimerID
	to      types.ReplicaID
	payload any
}

// pumpNet is the benchmark-owned in-memory network: one FIFO of
// deliveries for the whole cluster and a list of pending timers, all
// driven by the single pump goroutine.
type pumpNet struct {
	t0        time.Time
	queue     []delivery
	timers    []pumpTimer
	nextTimer simnet.TimerID
}

// pumpEnv is one replica's simnet.Env on a pumpNet.
type pumpEnv struct {
	net  *pumpNet
	self types.ReplicaID
	rng  *rand.Rand
}

var _ simnet.Env = (*pumpEnv)(nil)

func (e *pumpEnv) Self() types.ReplicaID { return e.self }
func (e *pumpEnv) Now() time.Duration    { return time.Since(e.net.t0) }
func (e *pumpEnv) Rand() *rand.Rand      { return e.rng }

func (e *pumpEnv) Send(to types.ReplicaID, msg simnet.Message) {
	e.net.queue = append(e.net.queue, delivery{to: to, from: e.self, msg: msg})
}

// SetTimer records the timer; the pump fires timers, oldest first, only
// when no message is left to deliver, which for protocol time-outs is
// the moment they would matter.
func (e *pumpEnv) SetTimer(_ time.Duration, payload any) simnet.TimerID {
	e.net.nextTimer++
	e.net.timers = append(e.net.timers, pumpTimer{id: e.net.nextTimer, to: e.self, payload: payload})
	return e.net.nextTimer
}

func (e *pumpEnv) CancelTimer(id simnet.TimerID) {
	for i, t := range e.net.timers {
		if t.id == id {
			e.net.timers = append(e.net.timers[:i], e.net.timers[i+1:]...)
			return
		}
	}
}

// owner returns the last element of the package path of a message's
// type: "rbc" for *rbc.Init.
func owner(msg simnet.Message) string {
	t := reflect.TypeOf(msg)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	path := t.PkgPath()
	return path[strings.LastIndexByte(path, '/')+1:]
}

// Pump runs N asmr replicas over a pumpNet until each has committed
// Shape.blocks() blocks of Shape.BlockTxs transactions, and returns, per
// replica and block, the time spent in OnMessage and the messages
// handled, by the package that owns the message. Every OnMessage is a
// span carrying its instance as the block.
func Pump(rec *Recorder, s Shape) (map[string]float64, error) {
	nBlocks := s.blocks()
	plan, err := loadgen.NewPlan(s.Seed, nBlocks*s.BlockTxs, 1)
	if err != nil {
		return nil, err
	}
	signers, _, err := crypto.GenerateCluster(crypto.SchemeEd25519, s.N, s.Seed)
	if err != nil {
		return nil, err
	}
	// payloads[k-1][r] is replica r+1's proposal for instance k.
	payloads := make([][][]byte, nBlocks)
	for k := range payloads {
		for _, batch := range s.proposals(plan.Txs[k*s.BlockTxs : (k+1)*s.BlockTxs]) {
			p, err := wire.EncodeBatch(batch)
			if err != nil {
				return nil, err
			}
			payloads[k] = append(payloads[k], p)
		}
	}

	net := &pumpNet{t0: time.Now()}
	members := make([]types.ReplicaID, s.N)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
	}
	committed := make(map[types.ReplicaID]int, s.N)
	var rounds []float64 // of every binary consensus replica 1 saw decided
	replicas := make(map[types.ReplicaID]*asmr.Replica, s.N)
	intern := rbc.NewIntern()
	for i, id := range members {
		cfg := asmr.Config{
			Self:             id,
			Signer:           signers[i],
			Env:              &pumpEnv{net: net, self: id, rng: rand.New(rand.NewSource(s.Seed + int64(id)))},
			InitialCommittee: members,
			Accountable:      true,
			Recover:          true,
			WaitForWork:      true,
			Intern:           intern,
			BatchSource: func(k uint64) asmr.Batch {
				if k > uint64(nBlocks) {
					return asmr.Batch{}
				}
				return asmr.Batch{Payload: payloads[k-1][i], ClaimedSigs: s.BlockTxs}
			},
			OnCommit: func(_ uint64, _ uint32, d *sbc.Decision) {
				committed[id]++
				if id != 1 {
					return
				}
				for _, cert := range d.BinCerts {
					rounds = append(rounds, float64(cert.Stmt.Round)+1)
				}
			},
		}
		replicas[id] = asmr.NewReplica(cfg)
	}
	done := func() bool {
		for _, id := range members {
			if committed[id] < nBlocks {
				return false
			}
		}
		return true
	}

	busy := make(map[string]time.Duration)
	msgs := make(map[string]int)
	for _, id := range members {
		busy["asmr"] += rec.Time("asmr.start", NoParent, 1, replicas[id].Start)
	}
	fired := 0
	for {
		if len(net.queue) == 0 {
			if done() {
				break
			}
			// A healthy run needs no time-out at all; a run that keeps
			// needing them is stuck.
			if fired++; len(net.timers) == 0 || fired > 1000 {
				return nil, fmt.Errorf("probe: pump stalled with %v of %d blocks committed", committed, nBlocks)
			}
			t := net.timers[0]
			net.timers = net.timers[1:]
			replicas[t.to].OnTimer(t.payload)
			continue
		}
		d := net.queue[0]
		net.queue = net.queue[1:]
		pkg := owner(d.msg)
		block := committed[d.to] + 1 // the receiver's instance in progress
		if _, wi, ok := sbc.ContextInstanceOf(d.msg); ok {
			k, _ := asmr.SplitInstance(wi)
			block = int(k)
		}
		busy[pkg] += rec.Time(pkg+".on_message", NoParent, block, func() {
			replicas[d.to].OnMessage(d.from, d.msg)
		})
		msgs[pkg]++
	}

	per := float64(nBlocks * s.N)
	out := map[string]float64{"bincon.rounds_per_slot": mean(rounds)}
	for _, pkg := range []string{"rbc", "bincon", "sbc", "asmr"} {
		out[pkg+".busy_ms_per_block"] = float64(busy[pkg]) / float64(time.Millisecond) / per
	}
	for _, pkg := range []string{"rbc", "bincon"} {
		out[pkg+".msgs_per_block"] = float64(msgs[pkg]) / per
	}
	return out, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

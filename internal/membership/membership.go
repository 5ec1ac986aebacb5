// Package membership implements the paper's Algorithm 1: the membership
// change that follows a disagreement. It runs two consecutive Set
// Byzantine Consensus instances — an exclusion consensus whose proposals
// are sets of proofs of fraud and whose committee C′ shrinks at runtime
// as new PoFs arrive (lines 13-36), then an inclusion consensus over the
// updated committee whose proposals are candidate replicas from the pool
// (lines 41-49) — and finally applies a deterministic choose function that
// spreads inclusions evenly across the decided proposals so the deceitful
// ratio cannot increase even if every included replica is deceitful.
package membership

import (
	"fmt"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// PoFBroadcast disseminates newly found proofs of fraud (Alg. 1 line 26).
type PoFBroadcast struct {
	Epoch uint64
	PoFs  []accountability.PoF
}

// SimBytes implements simnet.Meter.
func (m *PoFBroadcast) SimBytes() int { return 60 + 300*len(m.PoFs) }

// SimSigOps implements simnet.Meter.
func (m *PoFBroadcast) SimSigOps() int { return 2 * len(m.PoFs) }

// Result is the outcome of a completed membership change.
type Result struct {
	Epoch    uint64
	Excluded []types.ReplicaID
	Included []types.ReplicaID
	// PoFs are the decided proofs justifying the exclusions.
	PoFs []accountability.PoF
	// ExclusionDecision and InclusionDecision carry the certificates a
	// joiner needs to audit the change.
	ExclusionDecision *sbc.Decision
	InclusionDecision *sbc.Decision
	// Timing for the paper's Figure 5.
	StartedAt  time.Duration
	ExcludedAt time.Duration
	IncludedAt time.Duration
}

// Config parameterizes one membership change at one replica.
type Config struct {
	Epoch  uint64
	Self   types.ReplicaID
	Signer *crypto.Signer
	Log    *accountability.Log
	Env    simnet.Env
	// Committee is the full committee C at the time the change starts
	// (snapshot).
	Committee []types.ReplicaID
	// Pool supplies inclusion candidates.
	Pool *committee.Pool
	// TargetSize is the committee size to restore (n).
	TargetSize int
	// CoordTimeout is passed to the binary consensuses.
	CoordTimeout func(round types.Round) time.Duration
	// OnResult fires once, when the inclusion consensus completes.
	OnResult func(*Result)
}

// ChangeInstance packs the membership epoch and a retry attempt into the
// instance number the exclusion/inclusion consensus statements carry. A
// Set Byzantine Consensus can legitimately decide the empty set when
// replicas start the change at very different times (the zero bitmask);
// an empty exclusion or inclusion decision triggers a retry with a fresh
// instance number.
func ChangeInstance(epoch uint64, attempt uint32) types.Instance {
	return types.Instance(epoch<<6 | uint64(attempt)&0x3f)
}

// SplitChangeInstance reverses ChangeInstance.
func SplitChangeInstance(wi types.Instance) (epoch uint64, attempt uint32) {
	return uint64(wi) >> 6, uint32(uint64(wi) & 0x3f)
}

// Change is the state machine of one membership change epoch.
type Change struct {
	cfg Config

	// cPrime is the runtime-updated exclusion committee C′ (Alg. 1 line 4).
	cPrime *committee.View
	// cUpdated is C after exclusion, used by the inclusion consensus.
	cUpdated *committee.View

	exclusion  *sbc.Instance
	inclusion  *sbc.Instance
	exAttempt  uint32
	incAttempt uint32

	knownPoFs    map[types.ReplicaID]accountability.PoF
	excluded     []types.ReplicaID
	decidedPoFs  []accountability.PoF
	exclusionDec *sbc.Decision

	// pendingInc buffers inclusion-consensus traffic that arrives before
	// our exclusion consensus completes (peers may be ahead of us);
	// pendingEx buffers exclusion traffic for retry attempts ahead of ours.
	pendingInc []pendingMsg
	pendingEx  []pendingMsg

	started    time.Duration
	excludedAt time.Duration
	done       bool
}

type pendingMsg struct {
	from types.ReplicaID
	msg  simnet.Message
}

// NewChange creates the membership change and immediately starts the
// exclusion consensus: the caller invokes it only once it holds at least
// fd = ⌈n/3⌉ PoFs (Alg. 1 line 18).
func NewChange(cfg Config) *Change {
	c := &Change{
		cfg:       cfg,
		knownPoFs: make(map[types.ReplicaID]accountability.PoF),
	}
	c.started = cfg.Env.Now()
	// C′ starts as C minus the culprits we already hold proofs for
	// (Alg. 1 lines 20-21).
	c.cPrime = committee.NewView(cfg.Committee)
	for _, p := range cfg.Log.PoFs() {
		c.knownPoFs[p.Culprit] = p
	}
	c.cPrime.Exclude(culpritsOf(c.knownPoFs))

	// Subscribe the SBC quorum re-evaluation to view shrinking; the
	// closure reads the current attempt's instance.
	c.cPrime.Subscribe(func() {
		if c.exclusion != nil {
			c.exclusion.Reevaluate()
		}
	})
	c.startExclusion()
	// Broadcast our PoFs so every honest replica converges on the same C′
	// (Alg. 1 line 26).
	c.broadcastPoFs(c.cfg.Log.PoFs())
	return c
}

// startExclusion launches the exclusion consensus for the current attempt
// and proposes our PoF set (Alg. 1 line 22).
func (c *Change) startExclusion() {
	c.exclusion = sbc.New(sbc.Config{
		Context:      accountability.CtxExclusion,
		Instance:     ChangeInstance(c.cfg.Epoch, c.exAttempt),
		Self:         c.cfg.Self,
		Slots:        c.cfg.Committee,
		View:         c.cPrime,
		Signer:       c.cfg.Signer,
		Log:          c.cfg.Log,
		Env:          c.cfg.Env,
		Accountable:  true,
		Validate:     c.validateExclusionProposal,
		CoordTimeout: c.cfg.CoordTimeout,
		OnDecide:     c.onExclusionDecided,
	})
	payload, err := wire.EncodePoFs(c.cfg.Log.PoFs())
	if err != nil {
		panic(fmt.Sprintf("membership: encoding pofs: %v", err))
	}
	c.exclusion.Propose(payload, 0, 0)
	// Replay exclusion traffic for this attempt that peers sent early.
	buffered := c.pendingEx
	c.pendingEx = nil
	for _, p := range buffered {
		if !c.exclusion.OnMessage(p.from, p.msg) {
			c.pendingEx = append(c.pendingEx, p)
		}
	}
}

func culpritsOf(m map[types.ReplicaID]accountability.PoF) []types.ReplicaID {
	out := make([]types.ReplicaID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return types.SortReplicas(out)
}

// Done reports completion.
func (c *Change) Done() bool { return c.done }

// Phase describes the change's progress, for diagnostics.
func (c *Change) Phase() string {
	switch {
	case c.done:
		return "done"
	case c.inclusion != nil:
		return "inclusion"
	case c.exclusionDec != nil:
		return "excluded"
	default:
		return "exclusion"
	}
}

// Excluded exposes the exclusion outcome (diagnostics/tests).
func (c *Change) Excluded() []types.ReplicaID { return c.excluded }

// Epoch returns the change's epoch number.
func (c *Change) Epoch() uint64 { return c.cfg.Epoch }

func (c *Change) broadcastPoFs(pofs []accountability.PoF) {
	msg := &PoFBroadcast{Epoch: c.cfg.Epoch, PoFs: pofs}
	for _, m := range c.cfg.Committee {
		c.cfg.Env.Send(m, msg)
	}
}

// OnPoFs ingests externally received PoFs (from PoFBroadcast or from the
// owner's log) and updates C′ at runtime (Alg. 1 lines 23-27).
func (c *Change) OnPoFs(pofs []accountability.PoF) {
	if c.done {
		return
	}
	var fresh []accountability.PoF
	for _, p := range pofs {
		if _, known := c.knownPoFs[p.Culprit]; known {
			continue
		}
		if !p.Verify(c.cfg.Signer) {
			continue
		}
		c.knownPoFs[p.Culprit] = p
		c.cfg.Log.AddPoF(p)
		fresh = append(fresh, p)
	}
	if len(fresh) == 0 {
		return
	}
	// Shrink C′; the subscription re-evaluates pending quorums with the
	// smaller threshold and re-checks stored certificates.
	if c.exclusionDec == nil {
		c.cPrime.Exclude(culpritsOf(c.knownPoFs))
		// Re-broadcast the new PoFs (line 26).
		c.broadcastPoFs(fresh)
	}
}

// validateExclusionProposal accepts proposals that decode to a non-empty
// set of valid PoFs on committee members (SBC-Validity for the exclusion
// consensus).
func (c *Change) validateExclusionProposal(_ types.ReplicaID, payload []byte) bool {
	pofs, err := wire.DecodePoFs(payload)
	if err != nil || len(pofs) == 0 {
		return false
	}
	inCommittee := types.NewReplicaSet(c.cfg.Committee...)
	for _, p := range pofs {
		if !inCommittee.Contains(p.Culprit) {
			return false
		}
		if !p.Verify(c.cfg.Signer) {
			return false
		}
	}
	return true
}

// onExclusionDecided fires when the exclusion consensus completes: the
// excluded set is the union of culprits across decided proposals
// (Alg. 1 lines 37-40).
func (c *Change) onExclusionDecided(d *sbc.Decision) {
	if c.exclusionDec != nil {
		return
	}
	union := make(map[types.ReplicaID]accountability.PoF)
	for _, p := range d.OrderedProposals() {
		pofs, err := wire.DecodePoFs(p.Payload)
		if err != nil {
			continue // validated at echo time; defensive
		}
		for _, pof := range pofs {
			if _, dup := union[pof.Culprit]; !dup {
				union[pof.Culprit] = pof
			}
		}
	}
	if len(union) == 0 {
		// Empty decision (zero bitmask): nothing would be excluded. Retry
		// with a fresh instance — replicas are now synchronized on this
		// change, so the retry converges.
		c.exAttempt++
		c.startExclusion()
		return
	}
	c.exclusionDec = d
	c.excludedAt = c.cfg.Env.Now()
	c.excluded = culpritsOf(union)
	c.decidedPoFs = make([]accountability.PoF, 0, len(union))
	for _, id := range c.excluded {
		c.decidedPoFs = append(c.decidedPoFs, union[id])
	}

	// The inclusion consensus runs over the updated committee C \ excluded
	// (Alg. 1 line 40), a static view.
	remaining := make([]types.ReplicaID, 0, len(c.cfg.Committee))
	excludedSet := types.NewReplicaSet(c.excluded...)
	for _, id := range c.cfg.Committee {
		if !excludedSet.Contains(id) {
			remaining = append(remaining, id)
		}
	}
	c.cUpdated = committee.NewView(remaining)
	c.startInclusion()
}

// startInclusion launches the inclusion consensus for the current attempt
// and proposes candidates from the pool (Alg. 1 lines 41-42).
func (c *Change) startInclusion() {
	c.inclusion = sbc.New(sbc.Config{
		Context:      accountability.CtxInclusion,
		Instance:     ChangeInstance(c.cfg.Epoch, c.incAttempt),
		Self:         c.cfg.Self,
		View:         c.cUpdated,
		Signer:       c.cfg.Signer,
		Log:          c.cfg.Log,
		Env:          c.cfg.Env,
		Accountable:  true,
		Validate:     c.validateInclusionProposal,
		CoordTimeout: c.cfg.CoordTimeout,
		OnDecide:     c.onInclusionDecided,
	})
	want := c.cfg.TargetSize - c.cUpdated.Size()
	if want < 0 {
		want = 0
	}
	candidates := c.cfg.Pool.Peek(want)
	payload, err := wire.EncodeReplicas(candidates)
	if err != nil {
		panic(fmt.Sprintf("membership: encoding candidates: %v", err))
	}
	c.inclusion.Propose(payload, 0, 0)
	// Replay inclusion traffic that arrived while we were still excluding.
	buffered := c.pendingInc
	c.pendingInc = nil
	for _, p := range buffered {
		if !c.inclusion.OnMessage(p.from, p.msg) {
			c.pendingInc = append(c.pendingInc, p)
		}
	}
}

// validateInclusionProposal accepts proposals that decode to candidate
// replicas that are neither current members nor excluded culprits.
func (c *Change) validateInclusionProposal(_ types.ReplicaID, payload []byte) bool {
	ids, err := wire.DecodeReplicas(payload)
	if err != nil {
		return false
	}
	current := types.NewReplicaSet(c.cfg.Committee...)
	for _, id := range ids {
		if current.Contains(id) {
			return false
		}
	}
	return true
}

// onInclusionDecided applies the deterministic choose function and
// completes the change (Alg. 1 lines 43-49).
func (c *Change) onInclusionDecided(d *sbc.Decision) {
	if c.done {
		return
	}
	want := c.cfg.TargetSize - c.cUpdated.Size()
	if want > 0 && len(d.Proposals) == 0 && c.cfg.Pool.Len() > 0 {
		// Empty decision while inclusions are needed: retry.
		c.incAttempt++
		c.startInclusion()
		return
	}
	c.done = true

	proposalSets := make([][]types.ReplicaID, 0, len(d.Proposals))
	for _, p := range d.OrderedProposals() {
		ids, err := wire.DecodeReplicas(p.Payload)
		if err != nil {
			continue
		}
		proposalSets = append(proposalSets, ids)
	}
	included := Choose(len(c.excluded), proposalSets)

	res := &Result{
		Epoch:             c.cfg.Epoch,
		Excluded:          c.excluded,
		Included:          included,
		PoFs:              c.decidedPoFs,
		ExclusionDecision: c.exclusionDec,
		InclusionDecision: d,
		StartedAt:         c.started,
		ExcludedAt:        c.excludedAt,
		IncludedAt:        c.cfg.Env.Now(),
	}
	if c.cfg.OnResult != nil {
		c.cfg.OnResult(res)
	}
}

// OnMessage routes exclusion/inclusion consensus traffic and PoF
// broadcasts into the change. Inclusion traffic arriving while our
// exclusion consensus is still running is buffered and replayed once the
// inclusion consensus starts (peers can be a phase ahead of us). It
// reports whether the message was consumed.
func (c *Change) OnMessage(from types.ReplicaID, msg simnet.Message) bool {
	if m, ok := msg.(*PoFBroadcast); ok {
		if m.Epoch != c.cfg.Epoch {
			return false
		}
		c.OnPoFs(m.PoFs)
		return true
	}
	ctx, inst, ok := sbc.ContextInstanceOf(msg)
	if !ok {
		return false
	}
	epoch, attempt := SplitChangeInstance(inst)
	if epoch != c.cfg.Epoch {
		return false
	}
	switch ctx {
	case accountability.CtxExclusion:
		switch {
		case attempt == c.exAttempt:
			return c.exclusion.OnMessage(from, msg)
		case attempt > c.exAttempt:
			// A peer already retried; buffer until we do too.
			c.pendingEx = append(c.pendingEx, pendingMsg{from: from, msg: msg})
			return true
		default:
			return true // stale attempt, consume
		}
	case accountability.CtxInclusion:
		switch {
		case c.inclusion == nil || attempt > c.incAttempt:
			c.pendingInc = append(c.pendingInc, pendingMsg{from: from, msg: msg})
			return true
		case attempt == c.incAttempt:
			return c.inclusion.OnMessage(from, msg)
		default:
			return true // stale attempt, consume
		}
	default:
		return false
	}
}

// OnTimer routes binary-consensus timers into the change's SBC instances.
func (c *Change) OnTimer(tp bincon.TimerPayload) bool {
	if c.exclusion != nil && c.exclusion.OnTimer(tp) {
		return true
	}
	if c.inclusion != nil && c.inclusion.OnTimer(tp) {
		return true
	}
	return false
}

// Choose implements the paper's deterministic choose function: pick count
// replicas from the decided proposals, round-robin across proposals so
// the selection is spread as evenly as possible (Alg. 1 line 44 and the
// fairness guarantee of §4.1 ).
func Choose(count int, proposals [][]types.ReplicaID) []types.ReplicaID {
	chosen := make([]types.ReplicaID, 0, count)
	seen := types.NewReplicaSet()
	idx := make([]int, len(proposals))
	for len(chosen) < count {
		progress := false
		for p := range proposals {
			if len(chosen) >= count {
				break
			}
			for idx[p] < len(proposals[p]) {
				cand := proposals[p][idx[p]]
				idx[p]++
				if seen.Add(cand) {
					chosen = append(chosen, cand)
					progress = true
					break
				}
			}
		}
		if !progress {
			break // pools exhausted
		}
	}
	types.SortReplicas(chosen)
	return chosen
}

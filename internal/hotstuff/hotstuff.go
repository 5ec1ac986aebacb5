// Package hotstuff implements a chained HotStuff SMR (Yin et al.,
// PODC'19) as the paper's comparison baseline (§5.1): rotating leaders,
// one proposal per view, quorum certificates of n−t signed votes, the
// three-chain commit rule, and an exponential-backoff pacemaker. It runs
// over the same simulator and cost model as ZLB so Figure 3's comparison
// is apples to apples.
//
// As the paper observes, HotStuff decides one proposal per consensus
// instance regardless of the number of submitted transactions — that is
// precisely why its throughput curve stays flat while the SBC-based
// systems grow with n.
package hotstuff

import (
	"fmt"
	"time"

	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Block is one proposal in the HotStuff chain.
type Block struct {
	View    uint64
	Parent  types.Digest
	Payload []byte
	// ClaimedBytes / ClaimedTxs model the batch for the cost model.
	ClaimedBytes int
	ClaimedTxs   int
}

// Digest identifies the block.
func (b *Block) Digest() types.Digest {
	var buf [8 + 32]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(b.View >> (8 * (7 - i)))
	}
	copy(buf[8:], b.Parent[:])
	return types.HashConcat(buf[:], b.Payload)
}

// QC is a quorum certificate: n−t signed votes on one block.
type QC struct {
	View   uint64
	Block  types.Digest
	Voters []types.ReplicaID
	Sigs   []crypto.Signature
}

// Proposal is the leader's message for a view.
type Proposal struct {
	Block  *Block
	Justif *QC // QC for the parent (nil only for the genesis view)
}

// SimBytes implements simnet.Meter.
func (m *Proposal) SimBytes() int {
	n := 120 + len(m.Block.Payload)
	if m.Block.ClaimedBytes > 0 {
		n = 120 + m.Block.ClaimedBytes
	}
	if m.Justif != nil {
		n += 70 * len(m.Justif.Sigs)
	}
	return n
}

// SimSigOps implements simnet.Meter.
func (m *Proposal) SimSigOps() int {
	if m.Justif == nil {
		return 1
	}
	return 1 + len(m.Justif.Sigs)
}

// Vote is a replica's signed vote on a proposal.
type Vote struct {
	View  uint64
	Block types.Digest
	Voter types.ReplicaID
	Sig   crypto.Signature
}

// SimBytes implements simnet.Meter.
func (m *Vote) SimBytes() int { return 120 }

// SimSigOps implements simnet.Meter.
func (m *Vote) SimSigOps() int { return 1 }

// NewView carries a replica's highest QC to the next leader on timeout.
type NewView struct {
	View   uint64
	HighQC *QC
}

// SimBytes implements simnet.Meter.
func (m *NewView) SimBytes() int {
	n := 48
	if m.HighQC != nil {
		n += 70 * len(m.HighQC.Sigs)
	}
	return n
}

// SimSigOps implements simnet.Meter.
func (m *NewView) SimSigOps() int {
	if m.HighQC == nil {
		return 0
	}
	return len(m.HighQC.Sigs)
}

// Config parameterizes one HotStuff replica.
type Config struct {
	Self   types.ReplicaID
	View   *committee.View
	Signer *crypto.Signer
	Env    simnet.Env
	// BatchSource supplies the payload when this replica leads a view.
	BatchSource func(view uint64) (payload []byte, claimedBytes, claimedTxs int)
	// OnCommit fires in chain order for every committed block.
	OnCommit func(b *Block)
	// BaseTimeout is the pacemaker's view timeout; grows linearly with
	// consecutive failures. Zero selects 800 ms.
	BaseTimeout time.Duration
	// MaxViews stops the replica after this many views (0 = unlimited).
	MaxViews uint64
}

// Replica is one HotStuff replica (implements simnet.Handler).
type Replica struct {
	cfg     Config
	curView uint64
	blocks  map[types.Digest]*Block
	qcs     map[types.Digest]*QC
	highQC  *QC
	genesis types.Digest

	votes     map[uint64]map[types.ReplicaID]*Vote
	proposed  map[uint64]bool
	voted     map[uint64]bool
	newViews  map[uint64]map[types.ReplicaID]*QC
	committed map[types.Digest]bool
	timerID   simnet.TimerID
	failures  uint

	// Committed counts blocks committed (experiments).
	Committed int
	// CommittedTxs sums claimed transactions of committed blocks.
	CommittedTxs int
}

var _ simnet.Handler = (*Replica)(nil)

type viewTimer struct{ view uint64 }

// New creates a replica. Call Start on every replica to launch view 1.
func New(cfg Config) *Replica {
	if cfg.BaseTimeout == 0 {
		cfg.BaseTimeout = 800 * time.Millisecond
	}
	g := &Block{View: 0}
	r := &Replica{
		cfg:       cfg,
		blocks:    map[types.Digest]*Block{},
		qcs:       map[types.Digest]*QC{},
		votes:     map[uint64]map[types.ReplicaID]*Vote{},
		proposed:  map[uint64]bool{},
		voted:     map[uint64]bool{},
		newViews:  map[uint64]map[types.ReplicaID]*QC{},
		committed: map[types.Digest]bool{},
	}
	r.genesis = g.Digest()
	r.blocks[r.genesis] = g
	r.highQC = &QC{View: 0, Block: r.genesis}
	return r
}

// Start enters view 1.
func (r *Replica) Start() { r.enterView(1) }

func (r *Replica) leader(view uint64) types.ReplicaID {
	members := r.cfg.View.Members()
	return members[view%uint64(len(members))]
}

func (r *Replica) quorum() int { return r.cfg.View.Quorum() }

func (r *Replica) multicast(msg simnet.Message) {
	for _, m := range r.cfg.View.Members() {
		r.cfg.Env.Send(m, msg)
	}
}

func (r *Replica) enterView(v uint64) {
	if v <= r.curView {
		return
	}
	if r.cfg.MaxViews > 0 && v > r.cfg.MaxViews {
		return
	}
	r.curView = v
	r.cfg.Env.CancelTimer(r.timerID)
	timeout := r.cfg.BaseTimeout * time.Duration(1+r.failures)
	r.timerID = r.cfg.Env.SetTimer(timeout, viewTimer{view: v})
	// Propose only when we hold the QC chaining directly below this view
	// (at start, the genesis QC below view 1): a leader that proposed
	// with a stale highQC would break the three-chain. When the QC forms
	// later, onVote proposes; on timeouts, onNewView does.
	if r.leader(v) == r.cfg.Self && r.highQC.View+1 == v {
		r.propose(v)
	}
}

func (r *Replica) propose(v uint64) {
	if r.proposed[v] {
		return
	}
	if r.cfg.MaxViews > 0 && v > r.cfg.MaxViews {
		return
	}
	r.proposed[v] = true
	var payload []byte
	var cb, ct int
	if r.cfg.BatchSource != nil {
		payload, cb, ct = r.cfg.BatchSource(v)
	}
	b := &Block{
		View:         v,
		Parent:       r.highQC.Block,
		Payload:      payload,
		ClaimedBytes: cb,
		ClaimedTxs:   ct,
	}
	r.multicast(&Proposal{Block: b, Justif: r.highQC})
}

// OnMessage implements simnet.Handler.
func (r *Replica) OnMessage(from types.ReplicaID, msg simnet.Message) {
	switch m := msg.(type) {
	case *Proposal:
		r.onProposal(from, m)
	case *Vote:
		r.onVote(m)
	case *NewView:
		r.onNewView(from, m)
	}
}

// OnTimer implements simnet.Handler.
func (r *Replica) OnTimer(payload any) {
	t, ok := payload.(viewTimer)
	if !ok || t.view != r.curView {
		return
	}
	// Pacemaker: give up on the view, tell the next leader our highQC.
	r.failures++
	next := r.curView + 1
	r.cfg.Env.Send(r.leader(next), &NewView{View: next, HighQC: r.highQC})
	r.enterView(next)
}

func (r *Replica) stmtDigest(view uint64, block types.Digest) types.Digest {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(view >> (8 * (7 - i)))
	}
	return types.HashConcat(buf[:], block[:])
}

func (r *Replica) verifyQC(qc *QC) bool {
	if qc == nil {
		return false
	}
	if qc.Block == r.genesis && qc.View == 0 {
		return true
	}
	if len(qc.Voters) != len(qc.Sigs) || len(qc.Voters) < r.quorum() {
		return false
	}
	seen := types.NewReplicaSet()
	d := r.stmtDigest(qc.View, qc.Block)
	for i, voter := range qc.Voters {
		if !seen.Add(voter) || !r.cfg.View.Contains(voter) {
			return false
		}
		if !r.cfg.Signer.Verify(voter, d, qc.Sigs[i]) {
			return false
		}
	}
	return true
}

func (r *Replica) onProposal(from types.ReplicaID, m *Proposal) {
	b := m.Block
	if from != r.leader(b.View) {
		return
	}
	if !r.verifyQC(m.Justif) || m.Justif.Block != b.Parent {
		return
	}
	d := b.Digest()
	r.blocks[d] = b
	r.adoptQC(m.Justif)

	// Vote once per view, only for proposals extending our highQC branch
	// (simplified safety rule: justify ≥ our locked view).
	if b.View >= r.curView && !r.voted[b.View] {
		r.voted[b.View] = true
		sig, err := r.cfg.Signer.Sign(r.stmtDigest(b.View, d))
		if err == nil {
			r.cfg.Env.Send(r.leader(b.View+1), &Vote{View: b.View, Block: d, Voter: r.cfg.Self, Sig: sig})
		}
		r.failures = 0
		r.enterView(b.View + 1)
	}
}

func (r *Replica) onVote(m *Vote) {
	if m.Voter == types.NilReplica || !r.cfg.View.Contains(m.Voter) {
		return
	}
	if !r.cfg.Signer.Verify(m.Voter, r.stmtDigest(m.View, m.Block), m.Sig) {
		return
	}
	byVoter, ok := r.votes[m.View]
	if !ok {
		byVoter = make(map[types.ReplicaID]*Vote)
		r.votes[m.View] = byVoter
	}
	if _, dup := byVoter[m.Voter]; dup {
		return
	}
	byVoter[m.Voter] = m
	if len(byVoter) == r.quorum() {
		// Assemble the QC deterministically.
		voters := make([]types.ReplicaID, 0, len(byVoter))
		for id := range byVoter {
			voters = append(voters, id)
		}
		types.SortReplicas(voters)
		qc := &QC{View: m.View, Block: m.Block}
		for _, id := range voters {
			qc.Voters = append(qc.Voters, id)
			qc.Sigs = append(qc.Sigs, byVoter[id].Sig)
		}
		r.adoptQC(qc)
		// We lead view m.View+1: propose on top of it.
		if r.leader(m.View+1) == r.cfg.Self {
			r.enterView(m.View + 1)
			r.propose(m.View + 1)
		}
	}
}

func (r *Replica) onNewView(_ types.ReplicaID, m *NewView) {
	if m.HighQC != nil && r.verifyQC(m.HighQC) {
		r.adoptQC(m.HighQC)
	}
	if r.leader(m.View) == r.cfg.Self && m.View >= r.curView {
		r.enterView(m.View)
		r.propose(m.View)
	}
}

// adoptQC updates highQC and runs the three-chain commit rule.
func (r *Replica) adoptQC(qc *QC) {
	if qc == nil {
		return
	}
	if _, known := r.qcs[qc.Block]; !known {
		r.qcs[qc.Block] = qc
	}
	if qc.View > r.highQC.View {
		r.highQC = qc
	}
	// Three-chain: b'' (qc.Block) ← b' ← b with consecutive views
	// commits b and its ancestors.
	b2 := r.blocks[qc.Block]
	if b2 == nil {
		return
	}
	b1 := r.blocks[b2.Parent]
	if b1 == nil || b1.View+1 != b2.View {
		return
	}
	b0 := r.blocks[b1.Parent]
	if b0 == nil || b0.View+1 != b1.View {
		return
	}
	r.commitChain(b0)
}

// commitChain commits b and every uncommitted ancestor, oldest first.
func (r *Replica) commitChain(b *Block) {
	if b.View == 0 {
		return
	}
	d := b.Digest()
	if r.committed[d] {
		return
	}
	if parent, ok := r.blocks[b.Parent]; ok {
		r.commitChain(parent)
	}
	r.committed[d] = true
	r.Committed++
	r.CommittedTxs += b.ClaimedTxs
	if r.cfg.OnCommit != nil {
		r.cfg.OnCommit(b)
	}
}

// String summarizes the replica state.
func (r *Replica) String() string {
	return fmt.Sprintf("hotstuff(%v view=%d committed=%d)", r.cfg.Self, r.curView, r.Committed)
}

// Catch-up sync: the server side answers a SyncReq straight from the
// store (latest checkpoint + log tail, streamed as the CRC-framed record
// bytes), and the client side verifies a SyncResp and installs it into
// an empty store — the path a newly included standby or a
// wiped-and-restarted node takes instead of replaying from genesis.
//
// Verification is layered, mirroring who can vouch for what:
//
//   - every record frame's CRC is re-checked (transport corruption);
//   - every block record that carries transaction bodies must hash back
//     to its recorded digest (a lying server cannot swap bodies);
//   - the chain digests themselves are authenticated either by
//     cross-checking the responses of several peers (CrossCheck — a
//     majority of the committee must agree on the chain) or, at the
//     consensus layer, by the certificate audit the replica performs on
//     the decisions it adopts (asmr's block audit on catch-up; the
//     committee's certificates are the root of trust, per §4.1).

package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// Errors returned by the catch-up service.
var (
	// ErrNotEmpty rejects installing a sync transfer over existing state.
	ErrNotEmpty = errors.New("store: sync install requires an empty store")
	// ErrBadSync marks a transfer whose records fail verification.
	ErrBadSync = errors.New("store: sync response failed verification")
	// ErrNoQuorum means the queried peers did not agree on a chain.
	ErrNoQuorum = errors.New("store: no majority among sync responses")
)

// BuildSyncResp answers a catch-up request from the store's state: the
// latest checkpoint when asked for one, and the log-tail records the
// requester is missing. The checkpoint is also included — asked for or
// not — whenever FromK reaches into the range the checkpoint folded
// away: the pruned bodies only survive in the snapshot, and a response
// without it would hand the requester a chain with a silent gap.
// Supersede records are always included regardless of FromK — a fork
// merge may have rewritten an index the requester already holds.
func (s *Store) BuildSyncResp(req *wire.SyncReq) (*wire.SyncResp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := &wire.SyncResp{LastK: s.lastK}
	if s.checkpoint != nil && (req.WantCheckpoint || req.FromK <= s.checkpoint.LastK) {
		resp.Checkpoint = wire.EncodeCheckpoint(s.checkpoint)
	}
	for _, r := range s.tail {
		if !r.Supersede && r.Block.K < req.FromK {
			continue
		}
		payload, err := wire.EncodeBlockRecord(r.Block)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		kind := wire.RecordBlock
		if r.Supersede {
			kind = wire.RecordSupersede
		}
		resp.Log = wire.AppendRecord(resp.Log, kind, payload)
	}
	return resp, nil
}

// InstallSync verifies a catch-up transfer and installs it into an empty
// store: the checkpoint becomes the store's checkpoint, the log records
// are appended, and the recovered ledger is returned. genesis seeds the
// ledger when the transfer carries no checkpoint. The entire transfer is
// decoded and verified BEFORE the first byte is written, so a bad
// response leaves the store untouched — only an I/O failure mid-install
// can leave partial state behind (callers then discard the directory;
// it was empty). Records carrying transaction bodies are verified
// against their digests; use CrossCheck first to authenticate the chain
// itself against multiple peers.
func InstallSync(s *Store, scheme crypto.Scheme, resp *wire.SyncResp, genesis func(*bm.Ledger)) (*bm.Ledger, error) {
	if _, have := s.LastK(); have {
		return nil, ErrNotEmpty
	}
	// Phase 1: decode and verify everything.
	var cp *wire.CheckpointState
	if len(resp.Checkpoint) > 0 {
		decoded, err := wire.DecodeCheckpoint(resp.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSync, err)
		}
		cp = decoded
	}
	type verified struct {
		supersede bool
		block     *bm.Block
		attempt   uint32
	}
	var records []verified
	minCommitK := uint64(0)
	rest := resp.Log
	for len(rest) > 0 {
		kind, payload, next, err := wire.DecodeRecord(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSync, err)
		}
		if kind != wire.RecordBlock && kind != wire.RecordSupersede {
			return nil, fmt.Errorf("%w: unexpected record kind %d", ErrBadSync, kind)
		}
		rec, err := wire.DecodeBlockRecord(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSync, err)
		}
		if len(rec.Txs) > 0 {
			if recomputed := bm.NewBlock(rec.K, rec.Txs); recomputed.Digest != rec.Digest {
				return nil, fmt.Errorf("%w: block %d body does not hash to its digest", ErrBadSync, rec.K)
			}
		}
		if kind == wire.RecordBlock && (minCommitK == 0 || rec.K < minCommitK) {
			minCommitK = rec.K
		}
		records = append(records, verified{
			supersede: kind == wire.RecordSupersede,
			block:     &bm.Block{K: rec.K, Digest: rec.Digest, Txs: rec.Txs},
			attempt:   rec.Attempt,
		})
		rest = next
	}
	// Gap check: without a checkpoint the log must reach back to the
	// chain's start, or the recovered ledger would silently miss every
	// pre-checkpoint transaction.
	if cp == nil && minCommitK > 1 {
		return nil, fmt.Errorf("%w: log starts at block %d with no checkpoint to bridge the gap", ErrBadSync, minCommitK)
	}

	// Phase 2: install.
	if cp != nil {
		if err := s.WriteCheckpoint(cp); err != nil {
			return nil, err
		}
	}
	for _, v := range records {
		var err error
		if v.supersede {
			err = s.AppendMerge(v.block, v.attempt)
		} else {
			err = s.AppendBlock(v.block, v.attempt)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s.Recover(scheme, genesis)
}

// chainKey folds a response's chain (checkpoint digests, then log
// records, first record per index winning — the same fold bm's byIndex
// applies) into one digest for majority voting.
func chainKey(resp *wire.SyncResp) (types.Digest, error) {
	byK := make(map[uint64]types.Digest)
	var ks []uint64
	note := func(k uint64, d types.Digest) {
		if _, ok := byK[k]; !ok {
			byK[k] = d
			ks = append(ks, k)
		}
	}
	if len(resp.Checkpoint) > 0 {
		cp, err := wire.DecodeCheckpoint(resp.Checkpoint)
		if err != nil {
			return types.Digest{}, fmt.Errorf("%w: %v", ErrBadSync, err)
		}
		for _, b := range cp.Blocks {
			note(b.K, b.Digest)
		}
	}
	rest := resp.Log
	for len(rest) > 0 {
		_, payload, next, err := wire.DecodeRecord(rest)
		if err != nil {
			return types.Digest{}, fmt.Errorf("%w: %v", ErrBadSync, err)
		}
		rec, err := wire.DecodeBlockRecord(payload)
		if err != nil {
			return types.Digest{}, fmt.Errorf("%w: %v", ErrBadSync, err)
		}
		note(rec.K, rec.Digest)
		rest = next
	}
	// ks is in first-seen order; sort by index for a canonical fold.
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	buf := make([]byte, 0, len(ks)*(8+32))
	var kb [8]byte
	for _, k := range ks {
		binary.BigEndian.PutUint64(kb[:], k)
		buf = append(buf, kb[:]...)
		d := byK[k]
		buf = append(buf, d[:]...)
	}
	return types.Hash(buf), nil
}

// CrossCheck picks the response whose chain a strict majority of the
// responders agree on. Responses that fail to decode are discarded
// (counting toward the denominator: a peer sending garbage is a peer
// disagreeing). Two peers with different checkpoint cuts of the same
// chain vote together — the vote is on chain content, not bytes.
func CrossCheck(resps []*wire.SyncResp) (*wire.SyncResp, error) {
	votes := make(map[types.Digest][]int)
	for i, r := range resps {
		if r == nil {
			continue
		}
		key, err := chainKey(r)
		if err != nil {
			continue
		}
		votes[key] = append(votes[key], i)
	}
	for _, idxs := range votes {
		if 2*len(idxs) > len(resps) {
			// Prefer the longest response of the winning group (most
			// complete checkpoint + tail).
			best := resps[idxs[0]]
			for _, i := range idxs[1:] {
				if resps[i].LastK > best.LastK ||
					(resps[i].LastK == best.LastK && len(resps[i].Checkpoint) > len(best.Checkpoint)) {
					best = resps[i]
				}
			}
			return best, nil
		}
	}
	return nil, ErrNoQuorum
}

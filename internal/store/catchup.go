// Catch-up sync: the server side answers a SyncReq straight from the
// store (latest checkpoint + log tail, streamed as the CRC-framed record
// bytes), and the client side verifies a SyncResp and installs it into
// an empty store — the path a newly included standby or a
// wiped-and-restarted node takes instead of replaying from genesis.
//
// Verification is layered, mirroring who can vouch for what:
//
//   - every record frame's CRC is re-checked (transport corruption);
//   - every block record's decision must derive a block that hashes to
//     its recorded digest (a lying server cannot swap bodies);
//   - the chain digests themselves are authenticated either by
//     cross-checking the responses of several peers (CrossCheck — a
//     majority of the committee must send the same checkpoint and agree
//     on the chain) or, at the consensus layer, by the certificate audit
//     the replica performs on the decisions it adopts (asmr's block audit
//     on catch-up; the committee's certificates are the root of trust,
//     per §4.1).

package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

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
// latest checkpoint's file when asked for one, and the log-tail records
// the requester is missing. The checkpoint is also included — asked for or
// not — whenever FromK reaches into the range the checkpoint folded
// away: the pruned bodies only survive in the snapshot, and a response
// without it would hand the requester a chain with a silent gap.
// Supersede records are always included regardless of FromK — a fork
// merge may have rewritten an index the requester already holds. Each
// record travels as the frame its segment holds, read back and checked.
func (s *Store) BuildSyncResp(req *wire.SyncReq) (*wire.SyncResp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := &wire.SyncResp{LastK: s.lastK}
	if s.ckptFile != nil && (req.WantCheckpoint || req.FromK <= s.cutK) {
		raw, err := s.readCheckpointBytes()
		if err != nil {
			return nil, err
		}
		resp.Checkpoint = raw
	}
	for _, at := range s.tail {
		if at.kind != wire.RecordSupersede && at.k < req.FromK {
			continue
		}
		frame, _, err := s.readLocked(at)
		if err != nil {
			return nil, err
		}
		resp.Log = append(resp.Log, frame...)
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
// it was empty). Every record's decision must derive its block; use
// CrossCheck first to authenticate the chain itself against multiple
// peers.
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
	records, err := decodeLog(resp.Log)
	if err != nil {
		return nil, err
	}
	minCommitK := uint64(0)
	for _, r := range records {
		if !r.Supersede && (minCommitK == 0 || r.K < minCommitK) {
			minCommitK = r.K
		}
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
	for _, r := range records {
		if err := s.Append(r); err != nil {
			return nil, err
		}
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s.Recover(scheme, genesis)
}

// decodeLog decodes a transfer's log: block and supersede records only,
// each one's decision deriving its block.
func decodeLog(log []byte) ([]*BlockRecord, error) {
	var records []*BlockRecord
	for rest := log; len(rest) > 0; {
		kind, payload, next, err := wire.DecodeRecord(rest)
		if err == nil && kind != wire.RecordBlock && kind != wire.RecordSupersede {
			err = fmt.Errorf("unexpected record kind %d", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSync, err)
		}
		rec, err := decodeBlockRecord(kind, payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSync, err)
		}
		records = append(records, rec)
		rest = next
	}
	return records, nil
}

// chainKey folds a response's chain (checkpoint entries, then log
// records, first record per index winning — the same fold bm.Ledger's
// BlockAt answers from) into one digest for majority voting: the digest of
// the checkpoint's bytes, then per index the ledger digest and the
// decision digest. The chain's digests cover no checkpoint's outputs, so
// the checkpoint is voted on byte for byte.
func chainKey(resp *wire.SyncResp) (types.Digest, error) {
	byK := make(map[uint64][2]types.Digest)
	note := func(k uint64, ledger, decision types.Digest) {
		if _, ok := byK[k]; !ok {
			byK[k] = [2]types.Digest{ledger, decision}
		}
	}
	if len(resp.Checkpoint) > 0 {
		cp, err := wire.DecodeCheckpoint(resp.Checkpoint)
		if err != nil {
			return types.Digest{}, fmt.Errorf("%w: %v", ErrBadSync, err)
		}
		for _, b := range cp.Blocks {
			note(b.K, b.Digest, b.Decision)
		}
	}
	records, err := decodeLog(resp.Log)
	if err != nil {
		return types.Digest{}, err
	}
	for _, r := range records {
		note(r.K, r.Digest, r.Decision.Digest())
	}
	ckpt := types.Hash(resp.Checkpoint)
	buf := ckpt[:]
	for _, k := range slices.Sorted(maps.Keys(byK)) {
		d := byK[k]
		buf = append(append(binary.BigEndian.AppendUint64(buf, k), d[0][:]...), d[1][:]...)
	}
	return types.Hash(buf), nil
}

// CrossCheck picks a response whose checkpoint and chain a strict majority
// of the responders agree on. Responses that fail to decode are discarded
// (counting toward the denominator: a peer sending garbage is a peer
// disagreeing). The vote is on the checkpoint's bytes and the chain's
// content: two peers that cut the same chain at different heights vote
// apart, and with no majority among them the requester starts from
// genesis.
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
			return resps[idxs[0]], nil
		}
	}
	return nil, ErrNoQuorum
}

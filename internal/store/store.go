// Package store is ZLB's durable block store, and a deployed replica's
// history of decided blocks: an append-only, segmented block log with
// CRC-framed records (internal/wire), periodic UTXO checkpoints, and
// supersede records so the fork merge of the Blockchain Manager — which
// rewrites blocks at an existing index — replays cleanly instead of
// conflicting with the block it replaced.
//
// Layout of a replica's data directory:
//
//	<dir>/log/wal-00000001.seg   record frames, rolled at SegmentBytes
//	<dir>/log/wal-00000002.seg   ...
//	<dir>/checkpoint.ckpt        latest wire.EncodeCheckpoint snapshot
//
// Records are framed by wire.AppendRecord (length | crc32 | kind |
// payload). A block record (record.go) carries the decision the block
// derives from, certificates included, and no transactions apart from its
// payloads. On Open the segments are replayed in order; a torn frame at
// the tail of the LAST segment is a crash artifact and is truncated away,
// while corruption anywhere else fails the open — silent data loss in the
// middle of the chain must never be repaired automatically.
//
// A checkpoint snapshots the entire ledger state at a height
// (wire.CheckpointState). Cutting one prunes every segment that only
// holds records at or below the checkpoint height, so the log tail stays
// short no matter how long the chain gets — exactly what lets a standby
// replica catch up from "checkpoint + tail" instead of replaying from
// genesis (catchup.go). Decision reads a retained block's decision back.
//
// The store is safe for concurrent use. Appends go through a buffered
// writer; Flush (or Close) pushes them to the OS, and Options.Fsync
// additionally fsyncs on every checkpoint cut.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// Options tunes a store.
type Options struct {
	// SegmentBytes rolls the active segment once it exceeds this size
	// (default 1 MiB).
	SegmentBytes int
	// CheckpointEvery cuts a checkpoint automatically every N appended
	// blocks (0 = only explicit WriteCheckpoint calls).
	CheckpointEvery uint64
	// Fsync forces an fsync after every checkpoint cut and on Close.
	// Appends are still buffered; a crash can lose the unflushed tail,
	// which recovery handles as a torn tail.
	Fsync bool
}

// Errors returned by the store.
var (
	// ErrCorrupt marks unrecoverable damage: a bad frame not at the tail
	// of the last segment, or a checkpoint or record that does not decode.
	ErrCorrupt = errors.New("store: corrupt block log")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrPruned is Decision's answer below the retained segments.
	ErrPruned = errors.New("store: block pruned below the retained segments")
)

// segment is one on-disk log file.
type segment struct {
	seq  uint64
	path string
	// lastK is the highest chain index recorded in the segment
	// (checkpoint pruning drops segments entirely below a checkpoint).
	lastK   uint64
	records int
	// size counts the bytes appended to the segment, buffered ones
	// included: the offset of the next frame.
	size int64
}

// frameAt is where a block record's frame sits in a retained segment,
// and what the frame holds: the record kind, the block's index and the
// attempt it was decided under.
type frameAt struct {
	seg     *segment
	off     int64
	n       int
	k       uint64
	kind    wire.RecordKind
	attempt uint32
}

// Store is a durable block store rooted at one replica's data directory.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	segments []*segment
	active   *os.File
	buffered []byte // appended frames not yet written to the active file

	// ckpt is whether checkpoint.ckpt holds a snapshot, and cutK the
	// height it was cut at; the snapshot itself stays on disk. tail
	// locates the block records after the cut, in log order: recovery
	// replays them onto the checkpoint, and the catch-up server copies
	// their frames.
	ckpt bool
	cutK uint64
	tail []frameAt

	lastK      uint64
	haveBlocks bool
	sinceCkpt  uint64
	closed     bool
	// frames locates the first block record of each index the retained
	// segments hold.
	frames map[uint64]frameAt
}

// Open opens (creating if necessary) the store at dir and recovers its
// state: latest checkpoint plus the replayed log tail.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if err := os.MkdirAll(filepath.Join(dir, "log"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, frames: make(map[uint64]frameAt)}
	switch cp, err := s.readCheckpoint(); {
	case err == nil:
		s.noteCheckpoint(cp)
	case !errors.Is(err, os.ErrNotExist):
		return nil, err
	}
	if err := s.loadSegments(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) checkpointPath() string { return filepath.Join(s.dir, "checkpoint.ckpt") }

// readCheckpoint reads and decodes the checkpoint file; without one the
// error is os.ErrNotExist. A crash cannot tear one (WriteCheckpoint
// renames a complete file over it), so one that does not decode is
// corrupt: read as absent, it would reopen a pruned store as genesis plus
// the tail, a chain with a silent gap.
func (s *Store) readCheckpoint() (*wire.CheckpointState, error) {
	raw, err := os.ReadFile(s.checkpointPath())
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	cp, err := wire.DecodeCheckpoint(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, s.checkpointPath(), err)
	}
	return cp, nil
}

// noteCheckpoint records that the checkpoint file now holds cp: its cut
// height, and the blocks it holds, which the log may never have seen (the
// catch-up install path writes the transferred snapshot first).
func (s *Store) noteCheckpoint(cp *wire.CheckpointState) {
	s.ckpt, s.cutK = true, cp.LastK
	for _, b := range cp.Blocks {
		s.lastK, s.haveBlocks = max(s.lastK, b.K), true
	}
}

// folded reports whether block k is at or below the checkpoint's cut.
func (s *Store) folded(k uint64) bool { return s.ckpt && k <= s.cutK }

// loadSegments scans the log directory, replays every record and
// truncates a torn tail off the last segment.
func (s *Store) loadSegments() error {
	logDir := filepath.Join(s.dir, "log")
	entries, err := os.ReadDir(logDir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%08d.seg", &seq); n != 1 || err != nil {
			continue
		}
		s.segments = append(s.segments, &segment{seq: seq, path: filepath.Join(logDir, e.Name())})
	}
	sort.Slice(s.segments, func(i, j int) bool { return s.segments[i].seq < s.segments[j].seq })

	for i, seg := range s.segments {
		raw, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		last := i == len(s.segments)-1
		good, err := s.replaySegment(seg, raw, last)
		if err != nil {
			return err
		}
		if good < len(raw) {
			// Torn tail (crash mid-append): truncate to the last good frame.
			if err := os.Truncate(seg.path, int64(good)); err != nil {
				return fmt.Errorf("store: truncating torn tail: %w", err)
			}
		}
	}
	// Records folded into the loaded checkpoint are dropped from the
	// replay tail here, against the checkpoint itself — not against the
	// log's cut marker, whose durability is not ordered with the
	// checkpoint file's.
	if s.ckpt {
		s.dropFolded(s.cutK, nil)
	}
	if len(s.segments) == 0 {
		return s.rollSegmentLocked()
	}
	// Re-open the last segment for appending.
	seg := s.segments[len(s.segments)-1]
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active = f
	return nil
}

// replaySegment applies a segment's frames to the in-memory state. It
// returns the byte offset of the end of the last good frame. Only true
// crash artifacts in the last segment are tolerated (and truncated by
// the caller): a frame cut short by EOF, or a CRC-bad frame whose
// remaining bytes are all zero (a tail of unwritten pages). A CRC-valid
// frame with an undecodable payload, or a CRC mismatch with real data
// after it, is corruption wherever it sits — truncating there would
// silently delete good records, so the open fails instead.
func (s *Store) replaySegment(seg *segment, raw []byte, lastSegment bool) (int, error) {
	rest := raw
	good := 0
	for len(rest) > 0 {
		kind, payload, next, err := wire.DecodeRecord(rest)
		if err != nil {
			if lastSegment && errors.Is(err, wire.ErrRecordTruncated) {
				return good, nil // frame ran past EOF: torn write
			}
			if lastSegment && allZero(rest) {
				return good, nil // zero-page tail: torn write
			}
			return good, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, seg.path, good, err)
		}
		n := len(rest) - len(next)
		if err := s.applyRecord(frameAt{seg: seg, off: int64(good), n: n, kind: kind}, payload); err != nil {
			return good, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, seg.path, good, err)
		}
		good += n
		seg.size = int64(good)
		rest = next
	}
	return good, nil
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// applyRecord folds one decoded record, whose frame is at at, into the
// in-memory state.
func (s *Store) applyRecord(at frameAt, payload []byte) error {
	switch at.kind {
	case wire.RecordBlock, wire.RecordSupersede:
		rec, err := decodeBlockRecord(at.kind, payload)
		if err != nil {
			return err
		}
		s.noteBlock(at, rec)
	case wire.RecordCheckpoint:
		// Cut marker: the payload is the cut height (big-endian LastK),
		// recording where in the log a checkpoint was taken. It is
		// forensic only — recovery filters the tail against the loaded
		// checkpoint itself (loadSegments), never against the marker,
		// because the marker's durability is not ordered with the
		// checkpoint file's.
		if len(payload) != 8 {
			return fmt.Errorf("checkpoint marker with %d-byte payload", len(payload))
		}
	case 1, 2: // block and supersede records of the previous format
		return fmt.Errorf("record kind %d is a block record of the format before blocks carried their decision, which this build does not read", at.kind)
	default:
		return fmt.Errorf("unknown record kind %d", at.kind)
	}
	return nil
}

// noteBlock adds a block record, whose frame is at at, to the tail and
// the frame index.
func (s *Store) noteBlock(at frameAt, r *BlockRecord) {
	at.k, at.attempt = r.K, r.Attempt
	at.seg.lastK = max(at.seg.lastK, r.K)
	at.seg.records++
	s.lastK, s.haveBlocks = max(s.lastK, r.K), true // lastK is 0 while !haveBlocks
	if _, ok := s.frames[r.K]; !ok && !r.Supersede {
		s.frames[r.K] = at
	}
	s.tail = append(s.tail, at)
}

// LastK returns the highest chain index the store holds (and whether it
// holds any block at all).
func (s *Store) LastK() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastK, s.haveBlocks
}

// AppendBlock persists a block no decision produced (a test's, a layer
// benchmark's) under an uncertified one whose proposal is b's
// transactions.
func (s *Store) AppendBlock(b *bm.Block, attempt uint32) error {
	payload, err := wire.EncodeBatch(b.Txs)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.Append(&BlockRecord{K: b.K, Attempt: attempt, Digest: b.Digest, Decision: &sbc.Decision{
		Instance: types.Instance(b.K), Bits: map[types.ReplicaID]bool{0: true},
		Proposals: map[types.ReplicaID]sbc.ProposalInfo{0: {Payload: payload, Digest: types.Hash(payload), ClaimedSigs: len(b.Txs)}}}})
}

// Append persists a block record, whose Digest is the one of the block
// its Decision derives (BlockFrom). Committing at an index the store
// already holds — a retained block record's, or one the checkpoint folded
// in — is skipped, which makes the restart overlap (re-committing the
// last recovered instance after a catch-up) harmless.
func (s *Store) Append(r *BlockRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, held := s.frames[r.K]; !r.Supersede && (held || s.folded(r.K)) {
		return nil
	}
	payload, _ := r.AppendBinary(nil) // cannot fail
	s.noteBlock(s.appendFrame(r.kind(), payload), r)
	if err := s.maybeFlushLocked(); err != nil {
		return err
	}
	s.sinceCkpt++
	return nil
}

// appendFrame buffers one record frame for the active segment and
// returns where it goes there.
func (s *Store) appendFrame(kind wire.RecordKind, payload []byte) frameAt {
	n := len(s.buffered)
	s.buffered = wire.AppendRecord(s.buffered, kind, payload)
	seg := s.segments[len(s.segments)-1]
	at := frameAt{seg: seg, off: seg.size, n: len(s.buffered) - n, kind: kind}
	seg.size += int64(at.n)
	return at
}

// Decision reads back the decision of the first block record at index k
// in the retained segments: one read, CRC-checked. A block folded into
// the checkpoint whose segment was pruned is ErrPruned.
func (s *Store) Decision(k uint64) (*sbc.Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.frames[k]
	switch {
	case !ok && s.folded(k):
		return nil, fmt.Errorf("%w: block %d", ErrPruned, k)
	case !ok:
		return nil, fmt.Errorf("store: no block record at %d", k)
	}
	_, rec, err := s.readLocked(at)
	if err != nil {
		return nil, err
	}
	return rec.Decision, nil
}

// readLocked reads the block record at at back: one read of its frame,
// flushing first (it may still be buffered), CRC-checked and of at's kind
// and index. The record's payloads alias the frame, a fresh buffer.
func (s *Store) readLocked(at frameAt) (frame []byte, rec *BlockRecord, err error) {
	if err := s.flushLocked(); err != nil {
		return nil, nil, err
	}
	frame = make([]byte, at.n)
	f, err := os.Open(at.seg.path)
	if err == nil {
		_, err = f.ReadAt(frame, at.off)
		f.Close()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading block %d: %w", at.k, err)
	}
	kind, payload, _, err := wire.DecodeRecord(frame)
	if err == nil {
		rec, err = wire.Decode(payload, ReadBlockRecord)
	}
	if err == nil && (kind != at.kind || rec.K != at.k) {
		err = fmt.Errorf("a record of kind %d for block %d", kind, rec.K)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: block %d in %s at offset %d: %v", ErrCorrupt, at.k, at.seg.path, at.off, err)
	}
	rec.Supersede = kind == wire.RecordSupersede
	return frame, rec, nil
}

// RetainedBytes is the size of the retained segments.
func (s *Store) RetainedBytes() (n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segments {
		n += seg.size
	}
	return n
}

// maybeFlushLocked writes the buffer out once it is large enough, and
// rolls the segment when the active file exceeds SegmentBytes.
func (s *Store) maybeFlushLocked() error {
	if len(s.buffered) < 64<<10 {
		return nil
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if len(s.buffered) == 0 {
		return nil
	}
	if _, err := s.active.Write(s.buffered); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.buffered = s.buffered[:0]
	if s.segments[len(s.segments)-1].size >= int64(s.opts.SegmentBytes) {
		return s.rollSegmentLocked()
	}
	return nil
}

// rollSegmentLocked closes the active segment and opens the next one.
func (s *Store) rollSegmentLocked() error {
	if s.active != nil {
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	var seq uint64 = 1
	if n := len(s.segments); n > 0 {
		seq = s.segments[n-1].seq + 1
	}
	path := filepath.Join(s.dir, "log", fmt.Sprintf("wal-%08d.seg", seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segments = append(s.segments, &segment{seq: seq, path: path})
	s.active = f
	return nil
}

// Flush writes buffered appends to the OS.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// ShouldCheckpoint reports whether CheckpointEvery blocks were appended
// since the last cut — the application then snapshots its ledger and
// calls WriteCheckpoint.
func (s *Store) ShouldCheckpoint() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts.CheckpointEvery > 0 && s.sinceCkpt >= s.opts.CheckpointEvery
}

// WriteCheckpoint durably installs a ledger snapshot and prunes every
// log segment that holds only records at or below the snapshot height.
// The snapshot is written to a temp file and renamed, so
// a crash leaves either the old or the new checkpoint — never a torn
// one; segments are pruned only after the rename.
func (s *Store) WriteCheckpoint(cp *wire.CheckpointState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	raw := wire.EncodeCheckpoint(cp)
	tmp := s.checkpointPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if s.opts.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, s.checkpointPath()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.opts.Fsync {
		// Make the rename durable before any segment is unlinked: a
		// power loss must never persist the prune without the
		// checkpoint. (Every node's store sets Fsync, the simulator's
		// included. Without it the store still survives process crashes
		// — the rename is atomic and visible to any reopen — but not
		// power loss.)
		if err := syncDir(s.dir); err != nil {
			return err
		}
	}
	s.noteCheckpoint(cp)
	s.sinceCkpt = 0

	// Mark the cut in the log, then prune segments entirely below it.
	marker := make([]byte, 8)
	binary.BigEndian.PutUint64(marker, cp.LastK)
	s.appendFrame(wire.RecordCheckpoint, marker)
	if err := s.flushLocked(); err != nil {
		return err
	}
	pruned := make(map[*segment]bool)
	for _, seg := range s.segments[:len(s.segments)-1] {
		if seg.records > 0 && seg.lastK <= cp.LastK {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("store: pruning %s: %w", seg.path, err)
			}
			pruned[seg] = true
		}
	}
	s.segments = slices.DeleteFunc(s.segments, func(seg *segment) bool { return pruned[seg] })
	maps.DeleteFunc(s.frames, func(_ uint64, at frameAt) bool { return pruned[at.seg] })
	s.dropFolded(cp.LastK, pruned)
	return nil
}

// syncDir fsyncs a directory, making renames and unlinks inside it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// dropFolded filters the tail against a checkpoint cut at lastK, whose
// cut removed the pruned segments: a record of a pruned segment goes with
// its frame, and a commit at or below the cut is folded into the
// snapshot and goes. A commit beyond the cut stays (a caller may legally
// append block lastK+1 between capturing the snapshot and installing it),
// and so does a retained supersede record at any index: a merge appended
// after the cut can rewrite a block below it, and replaying one the
// snapshot folded in is a no-op (the merged set travels in the snapshot).
// A reopen replays the retained segments and applies the same filter, so
// it sees the tail the running store holds.
func (s *Store) dropFolded(lastK uint64, pruned map[*segment]bool) {
	s.tail = slices.DeleteFunc(s.tail, func(at frameAt) bool {
		return pruned[at.seg] || at.kind != wire.RecordSupersede && at.k <= lastK
	})
}

// Recover rebuilds the ledger from the latest checkpoint, read from its
// file (or a fresh genesis), plus the replayed log tail, each block
// derived from its decision again. genesis seeds a fresh ledger when no
// checkpoint exists — it must reproduce the node's boot-time state
// (genesis allocations and staked deposits).
func (s *Store) Recover(scheme crypto.Scheme, genesis func(*bm.Ledger)) (*bm.Ledger, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var l *bm.Ledger
	if s.ckpt {
		cp, err := s.readCheckpoint()
		if err != nil {
			return nil, err
		}
		l = bm.RestoreLedger(scheme, cp)
	} else {
		l = bm.NewLedger(scheme)
		if genesis != nil {
			genesis(l)
		}
	}
	for _, at := range s.tail {
		_, r, err := s.readLocked(at)
		if err != nil {
			return nil, err
		}
		b := BlockFrom(r.K, r.Decision, wire.DecodeBatch)
		if r.Supersede {
			l.MergeBlock(b)
		} else {
			l.CommitBlock(b)
		}
	}
	return l, nil
}

// Attempt is the attempt block k was decided under, as a reopened store
// knows it: its retained block record's above the checkpoint's cut, and 0
// at or below the cut, whose snapshot holds no attempts.
func (s *Store) Attempt(k uint64) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at, ok := s.frames[k]; ok && !s.folded(k) {
		return at.attempt
	}
	return 0
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	s.closed = true
	if s.opts.Fsync {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active = nil
	return nil
}

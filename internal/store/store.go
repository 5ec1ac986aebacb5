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
// A cut runs in two halves. StartCheckpoint hands the captured snapshot
// to a goroutine of the store's, which sorts, encodes, writes, fsyncs and
// renames it into place while the caller goes on appending; the store
// installs it — the new cut height, the tail filter, the cut marker and
// the segment prune — only at the next StartCheckpoint or at Close,
// waiting there for the write if it is still running. So what the store
// answers changes at points of the append sequence, never with the
// goroutine's timing. The files an install drops are closed and unlinked
// by the next cut's goroutine. WriteCheckpoint is the blocking form of
// the same cut.
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
	"time"

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
	// CheckpointEvery is the cadence ShouldCheckpoint reports: a cut is
	// due once N blocks were appended since the last one started. The
	// store holds no ledger, so the application captures the snapshot and
	// starts the cut (0 = ShouldCheckpoint never reports one due).
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

	// ckptFile is the installed checkpoint, held open (nil before the
	// first), and cutK the height it was cut at; the snapshot itself
	// stays on disk. Recover and BuildSyncResp read it through this
	// descriptor, never through the path, which a cut in flight may have
	// renamed a newer file onto before its install. tail locates the
	// block records after the cut, in log order: recovery replays them
	// onto the checkpoint, and the catch-up server copies their frames.
	ckptFile *os.File
	cutK     uint64
	tail     []frameAt
	// cut is the cut in flight, nil when none: at most one runs.
	cut *pendingCut
	// stale is what the last install dropped, for the next cut's
	// goroutine (or Close) to release off the caller's goroutine.
	stale stale

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
	switch f, err := os.Open(checkpointPath(dir)); {
	case err == nil:
		s.ckptFile = f
		cp, err := s.readCheckpoint()
		if err != nil {
			f.Close()
			return nil, err
		}
		s.noteCheckpoint(cutOf(cp))
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.loadSegments(); err != nil {
		s.ckptFile.Close()
		return nil, err
	}
	return s, nil
}

func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.ckpt") }

// readCheckpointBytes reads the installed checkpoint's file whole.
func (s *Store) readCheckpointBytes() ([]byte, error) {
	fi, err := s.ckptFile.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	raw := make([]byte, fi.Size())
	if _, err := s.ckptFile.ReadAt(raw, 0); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return raw, nil
}

// readCheckpoint reads and decodes the installed checkpoint. A crash
// cannot tear one (a cut renames a complete file over it), so one that
// does not decode is corrupt: read as absent, it would reopen a pruned
// store as genesis plus the tail, a chain with a silent gap.
func (s *Store) readCheckpoint() (*wire.CheckpointState, error) {
	raw, err := s.readCheckpointBytes()
	if err != nil {
		return nil, err
	}
	cp, err := wire.DecodeCheckpoint(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, checkpointPath(s.dir), err)
	}
	return cp, nil
}

// cutPoint is what the store keeps of a snapshot: the height it was cut
// at and the highest block it holds, if it holds any.
type cutPoint struct {
	k, topK uint64
	blocks  bool
}

func cutOf(cp *wire.CheckpointState) (c cutPoint) {
	c.k = cp.LastK
	for _, b := range cp.Blocks {
		c.topK, c.blocks = max(c.topK, b.K), true
	}
	return c
}

// noteCheckpoint records that the installed checkpoint was cut at c: its
// height, and the blocks it holds, which the log may never have seen (the
// catch-up install path writes the transferred snapshot first).
func (s *Store) noteCheckpoint(c cutPoint) {
	s.cutK = c.k
	if c.blocks {
		s.lastK, s.haveBlocks = max(s.lastK, c.topK), true
	}
}

// folded reports whether block k is at or below the checkpoint's cut.
func (s *Store) folded(k uint64) bool { return s.ckptFile != nil && k <= s.cutK }

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
	if s.ckptFile != nil {
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
// since the last cut started — the application then snapshots its ledger
// and calls StartCheckpoint.
func (s *Store) ShouldCheckpoint() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts.CheckpointEvery > 0 && s.sinceCkpt >= s.opts.CheckpointEvery
}

// Cut is a checkpoint cut as the store installed it.
type Cut struct {
	// K is the height the snapshot was cut at.
	K uint64
	// Write is how long its background half took: sort, encode, write,
	// fsyncs and rename.
	Write time.Duration
}

// pendingCut is the cut in flight: where its snapshot was cut, the
// sequence number of the segment that was active then, and where its
// background half reports. Only the segments before that one were sealed
// when the snapshot was captured; a later segment, or that one, may hold a
// record the snapshot lacks, such as a merge's supersede record at an
// index at or below the cut.
type pendingCut struct {
	at     cutPoint
	active uint64
	done   chan cutResult
}

// cutResult is what a cut's background half reports: the new checkpoint,
// open and renamed into place, or why there is none; and whether the
// files it released were released.
type cutResult struct {
	f        *os.File
	took     time.Duration
	err      error
	staleErr error
}

// stale is what an install dropped: the checkpoint file it replaced, held
// open until then (its last close frees the blocks the rename unlinked),
// and the files of the segments it pruned. Releasing them is file-system
// work the event loop need not wait for; a crash before it leaves
// segments at or below the cut, which a reopen filters out.
type stale struct {
	ckpt     *os.File
	segments []string
}

func (st stale) release() error {
	if st.ckpt != nil {
		st.ckpt.Close()
	}
	var errs []error
	for _, path := range st.segments {
		if err := os.Remove(path); err != nil {
			errs = append(errs, fmt.Errorf("store: pruning %s: %w", path, err))
		}
	}
	return errors.Join(errs...)
}

// StartCheckpoint cuts a checkpoint of cp, a snapshot the caller hands
// over (bm.Ledger.CaptureCheckpoint; it may be unsorted) and must not
// touch again. It first installs the cut in flight, if any, waiting for
// its write only if it is still running, and returns that cut, or its
// error: a failed cut is reported here, once, and leaves the checkpoint
// and the log as they were. Then it starts the new cut on a goroutine of
// the store's, which releases the files the install dropped, sorts the
// snapshot (bm.SortCheckpoint), encodes it, writes it to a temp file,
// fsyncs it, renames it over the checkpoint and fsyncs the directory,
// touching nothing of the store's; the next StartCheckpoint or Close
// installs it. Appends made meanwhile count toward the next cut.
func (s *Store) StartCheckpoint(cp *wire.CheckpointState) (*Cut, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	cut, err := s.installLocked()
	return cut, errors.Join(err, s.startLocked(cp))
}

// WriteCheckpoint is the blocking form of StartCheckpoint: it installs
// the cut in flight, if any, then cuts cp, installs it and prunes before
// it returns.
func (s *Store) WriteCheckpoint(cp *wire.CheckpointState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	_, err := s.installLocked()
	if serr := s.startLocked(cp); serr != nil {
		return errors.Join(err, serr)
	}
	_, err2 := s.installLocked()
	return errors.Join(err, err2, s.releaseLocked())
}

// startLocked flushes the appends cp holds, which may seal the active
// segment, and starts the cut of cp; a failed flush starts none.
func (s *Store) startLocked(cp *wire.CheckpointState) error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	p := &pendingCut{at: cutOf(cp), active: s.segments[len(s.segments)-1].seq, done: make(chan cutResult, 1)}
	s.cut, s.sinceCkpt = p, 0
	dir, fsync, dropped := s.dir, s.opts.Fsync, s.stale
	s.stale = stale{}
	go func() {
		staleErr := dropped.release()
		r := writeCheckpoint(dir, fsync, cp)
		r.staleErr = staleErr
		p.done <- r
	}()
	return nil
}

// releaseLocked releases what the last install dropped, on the caller's
// goroutine.
func (s *Store) releaseLocked() error {
	err := s.stale.release()
	s.stale = stale{}
	return err
}

// installLocked waits for the cut in flight, if any, and installs it: the
// store reads the new checkpoint from now on, marks the cut in the log
// and prunes every segment that was sealed when the snapshot was captured
// and lies entirely at or below the cut. A segment that took a record
// after the capture stays, whatever its indices: the snapshot lacks that
// record. Segments go only once the new checkpoint's rename is durable,
// which the background half made it before it reported; their files, and
// the replaced checkpoint's, are left to the next release (stale).
func (s *Store) installLocked() (*Cut, error) {
	p := s.cut
	if p == nil {
		return nil, nil
	}
	s.cut = nil
	res := <-p.done
	if res.err != nil {
		return nil, errors.Join(res.staleErr, res.err)
	}
	s.stale.ckpt, s.ckptFile = s.ckptFile, res.f
	s.noteCheckpoint(p.at)

	// Mark the cut in the log, then prune the segments sealed before the
	// capture that lie entirely below the cut.
	marker := make([]byte, 8)
	binary.BigEndian.PutUint64(marker, p.at.k)
	s.appendFrame(wire.RecordCheckpoint, marker)
	if err := s.flushLocked(); err != nil {
		return nil, errors.Join(res.staleErr, err)
	}
	pruned := make(map[*segment]bool)
	for _, seg := range s.segments {
		if seg.seq < p.active && seg.records > 0 && seg.lastK <= p.at.k {
			s.stale.segments = append(s.stale.segments, seg.path)
			pruned[seg] = true
		}
	}
	s.segments = slices.DeleteFunc(s.segments, func(seg *segment) bool { return pruned[seg] })
	maps.DeleteFunc(s.frames, func(_ uint64, at frameAt) bool { return pruned[at.seg] })
	s.dropFolded(p.at.k, pruned)
	return &Cut{K: p.at.k, Write: res.took}, res.staleErr
}

// cutStage, when set, is called by a cut's background half once the temp
// file is written and synced ("written") and once the rename is durable
// ("renamed"): tests hold the cut at those points, and fail it at the
// first.
var cutStage func(stage string) error

// writeCheckpoint is a cut's background half. It owns cp and touches no
// store state: it sorts and encodes the snapshot, writes it to a temp
// file and renames that over the checkpoint, so a crash leaves either the
// old or the new checkpoint, never a torn one. With fsync it syncs the
// file before the rename and the directory after it, so that the rename
// is durable before the install prunes a segment: a power loss must never
// persist the prune without the checkpoint. (Every node's store sets
// Fsync, the simulator's included. Without it the store still survives
// process crashes — the rename is atomic and visible to any reopen — but
// not power loss.) The file comes back open, for the store to read the
// checkpoint through once it installs it.
func writeCheckpoint(dir string, fsync bool, cp *wire.CheckpointState) cutResult {
	t0 := time.Now()
	bm.SortCheckpoint(cp)
	raw := wire.EncodeCheckpoint(cp)
	path := checkpointPath(dir)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return cutResult{err: fmt.Errorf("store: %w", err)}
	}
	fail := func(err error) cutResult {
		f.Close()
		os.Remove(tmp)
		return cutResult{err: fmt.Errorf("store: %w", err)}
	}
	if _, err := f.Write(raw); err != nil {
		return fail(err)
	}
	if fsync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if cutStage != nil {
		if err := cutStage("written"); err != nil {
			return fail(err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail(err)
	}
	if fsync {
		if err := syncDir(dir); err != nil {
			f.Close()
			return cutResult{err: err}
		}
	}
	if cutStage != nil {
		cutStage("renamed") // a hold only: the rename is done
	}
	return cutResult{f: f, took: time.Since(t0)}
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
	if s.ckptFile != nil {
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

// Close installs the cut in flight, if any, waiting for its write, then
// flushes and closes the store. A failed cut is returned here.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	_, cutErr := s.installLocked()
	cutErr = errors.Join(cutErr, s.releaseLocked())
	if err := s.flushLocked(); err != nil {
		return errors.Join(cutErr, err)
	}
	s.closed = true
	if s.ckptFile != nil {
		s.ckptFile.Close()
	}
	if s.opts.Fsync {
		if err := s.active.Sync(); err != nil {
			return errors.Join(cutErr, fmt.Errorf("store: %w", err))
		}
	}
	if err := s.active.Close(); err != nil {
		return errors.Join(cutErr, fmt.Errorf("store: %w", err))
	}
	s.active = nil
	return cutErr
}

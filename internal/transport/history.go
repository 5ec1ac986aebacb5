package transport

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"

	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
)

// HistoryFile is the deployed node's asmr.History: an append-only file of
// retired decisions, each encoded as a peer frame encodes one
// (appendDecision) but with a payload that several slots carry written
// once, and read back with the frame decoder. The file is
// unlinked as soon as it is created, so it lives exactly as long as the
// process holds it open: nothing is left behind, and nothing is recovered
// on a restart (the store restores the chain, as before). It is used from
// the replica's event loop only.
type HistoryFile struct {
	f    *os.File
	size int64  // bytes written; a failed write is overwritten by the next
	buf  []byte // encoding scratch, reused
}

var _ asmr.History = (*HistoryFile)(nil)

// OpenHistoryFile creates the history file in dir, or in os.TempDir()
// when dir is empty, and unlinks it.
func OpenHistoryFile(dir string) (*HistoryFile, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "zlb-history-*")
	if err != nil {
		return nil, fmt.Errorf("history file: %w", err)
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("history file: %w", err)
	}
	return &HistoryFile{f: f}, nil
}

// Put appends d's encoding. A payload that several slots carry (one
// proposal digest, as when every replica proposes the same batch) is
// written once, in the lowest of those slots; the others are written
// without it, and Get gives them the first one's.
func (h *HistoryFile) Put(d *sbc.Decision) (asmr.HistoryRef, error) {
	h.buf = appendDecision(h.buf[:0], payloadsOnce(d))
	ref := asmr.HistoryRef{Off: h.size, Len: int64(len(h.buf))}
	if _, err := h.f.WriteAt(h.buf, ref.Off); err != nil {
		return asmr.HistoryRef{}, err
	}
	h.size += ref.Len
	return ref, nil
}

// payloadsOnce returns d with every non-empty payload left in the lowest
// slot that carries its digest and nil in the others, or d itself when no
// two slots carry one.
func payloadsOnce(d *sbc.Decision) *sbc.Decision {
	held := make(map[types.Digest]bool, len(d.Proposals))
	out := d
	for _, slot := range slices.Sorted(maps.Keys(d.Proposals)) {
		p := d.Proposals[slot]
		if len(p.Payload) == 0 || !held[p.Digest] {
			held[p.Digest] = len(p.Payload) > 0
			continue
		}
		if out == d {
			c := *d
			c.Proposals = maps.Clone(d.Proposals)
			out = &c
		}
		p.Payload = nil
		out.Proposals[slot] = p
	}
	return out
}

// sharePayloads gives each nil payload of d the non-empty one another
// slot carries under the same digest, undoing payloadsOnce.
func sharePayloads(d *sbc.Decision) {
	carried := make(map[types.Digest][]byte, len(d.Proposals))
	for _, p := range d.Proposals {
		if len(p.Payload) > 0 {
			carried[p.Digest] = p.Payload
		}
	}
	for slot, p := range d.Proposals {
		if b, ok := carried[p.Digest]; ok && p.Payload == nil {
			p.Payload = b
			d.Proposals[slot] = p
		}
	}
}

// errHistoryRef is a reference past what the file holds.
var errHistoryRef = errors.New("transport: history reference past the end of the file")

// Get reads back the decision Put wrote at ref: one read, decoded with
// the peer frame decoder, which refuses a short or malformed encoding.
func (h *HistoryFile) Get(ref asmr.HistoryRef) (*sbc.Decision, error) {
	if ref.Off < 0 || ref.Len <= 0 || ref.Off+ref.Len > h.size {
		return nil, errHistoryRef
	}
	b := make([]byte, ref.Len) // the decision's payloads alias it
	if _, err := h.f.ReadAt(b, ref.Off); err != nil {
		return nil, err
	}
	dec := &decoder{b: b}
	d := dec.decision()
	switch {
	case dec.err != nil:
		return nil, dec.err
	case d == nil:
		return nil, fmt.Errorf("%w: no decision", errNonCanon)
	case len(dec.b) != 0:
		return nil, errFrameTail
	}
	sharePayloads(d)
	return d, nil
}

// Bytes is the size of the file.
func (h *HistoryFile) Bytes() int64 { return h.size }

// Close closes the file, which frees it.
func (h *HistoryFile) Close() error { return h.f.Close() }

package rbc

import (
	"sync"

	"github.com/zeroloss/zlb/internal/types"
)

// Intern is a digest-keyed byte-slice intern table shared by every
// reliable-broadcast instance of a deployment. Each replica's rbc state
// keeps per-slot payload maps; without interning, a deployment of n
// replicas retains up to n references — and, on the TCP path or under an
// equivocating broadcaster building per-recipient variants, n distinct
// copies — of every slot's proposal. At the paper-scale sweeps (n=90, 16
// instances, ~4 MB batches) that duplication dominates the heap. Intern
// canonicalizes by content digest: the first slice stored for a digest
// wins and every later holder aliases it.
//
// The table is safe for concurrent use: with the parallel simulator,
// replicas of the same deployment intern payloads from worker goroutines
// inside one lookahead window. The digest is the content hash, so
// whichever copy wins the race is byte-identical to the losers —
// interning never changes observable state, only sharing.
type Intern struct {
	mu sync.Mutex
	m  map[types.Digest][]byte
}

// NewIntern creates an empty intern table; scope it to one deployment
// (cluster or node process). Entries live until the instance that stored
// them is retired and calls Release, so a long-running node holds only
// the payloads of its live consensus instances.
func NewIntern() *Intern {
	return &Intern{m: make(map[types.Digest][]byte)}
}

// Bytes returns the canonical slice for the payload with the given
// digest, storing p as canonical when the digest is new. A nil receiver
// disables interning and returns p unchanged. The caller must pass the
// payload's true content digest (types.Hash(p)) — rbc verifies payload
// digests before storing, so interned entries are collision-consistent.
func (in *Intern) Bytes(d types.Digest, p []byte) []byte {
	if in == nil {
		return p
	}
	in.mu.Lock()
	if got, ok := in.m[d]; ok {
		in.mu.Unlock()
		return got
	}
	in.m[d] = p
	in.mu.Unlock()
	return p
}

// Release drops the canonical entry for a digest. Holders keep their own
// references to the slice; only the table's sharing index forgets it, so
// releasing a digest another live instance still uses costs at most one
// duplicate copy if the payload is stored again.
func (in *Intern) Release(d types.Digest) {
	if in == nil {
		return
	}
	in.mu.Lock()
	delete(in.m, d)
	in.mu.Unlock()
}

// Len reports how many distinct payloads are interned.
func (in *Intern) Len() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.m)
}

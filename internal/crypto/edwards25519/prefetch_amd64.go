//go:build !purego

package edwards25519

// prefetch asks the CPU to bring the table entry e into its caches: the
// two or three cache lines its 120 bytes span.
//
//go:noescape
func prefetch(e *affineCached)

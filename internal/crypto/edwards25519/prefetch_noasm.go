//go:build !amd64 || purego

package edwards25519

// prefetch does nothing where the amd64 assembly is not built.
func prefetch(*affineCached) {}

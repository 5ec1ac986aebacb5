package crypto

import (
	"bytes"
	"crypto/ed25519"
	"testing"

	"github.com/zeroloss/zlb/internal/types"
)

// FuzzSignMatchesStdlib expands a seed through the scheme and through
// the standard library, and requires the same public key and the same
// signature of msg, byte for byte.
func FuzzSignMatchesStdlib(f *testing.F) {
	f.Add(make([]byte, 32), []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32), []byte("statement"))
	for i := range int64(4) {
		seed := make([]byte, 32)
		NewDeterministicRand(i).Read(seed)
		d := types.Hash(seed)
		f.Add(seed, d[:])
	}
	f.Add(bytes.Repeat([]byte{7}, 32), bytes.Repeat([]byte{0xa5}, 300)) // longer than the stack buffer
	f.Fuzz(func(t *testing.T, seed, msg []byte) {
		if len(seed) != ed25519.SeedSize {
			return
		}
		kp, err := edScheme{}.GenerateKey(bytes.NewReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		priv := ed25519.NewKeyFromSeed(seed)
		if want := priv.Public().(ed25519.PublicKey); !bytes.Equal(kp.Public(), want) {
			t.Fatalf("seed %x: public key %x, stdlib %x", seed, kp.Public(), want)
		}
		if got, want := kp.ed.sign(msg), ed25519.Sign(priv, msg); !bytes.Equal(got, want) {
			t.Fatalf("seed %x, msg %x: signature %x, stdlib %x", seed, msg, got, want)
		}
	})
}

// The node's PKI draws every replica's key from one shared stream, so
// each key depends on how many bytes the keys before it took: three
// keys in a row match the standard library's three.
func TestKeyStreamMatchesStdlib(t *testing.T) {
	scheme, err := NewScheme(SchemeEd25519, nil)
	if err != nil {
		t.Fatal(err)
	}
	ours, theirs := NewDeterministicRand(11), NewDeterministicRand(11)
	for i := range 3 {
		kp, err := scheme.GenerateKey(ours)
		if err != nil {
			t.Fatal(err)
		}
		pub, _, err := ed25519.GenerateKey(theirs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kp.Public(), pub) {
			t.Fatalf("key %d: %x, stdlib %x", i, kp.Public(), pub)
		}
	}
}

// A signature's one allocation is the 64 bytes it returns.
func TestSignAllocatesOnce(t *testing.T) {
	scheme, _ := NewScheme(SchemeEd25519, nil)
	kp, err := scheme.GenerateKey(NewDeterministicRand(3))
	if err != nil {
		t.Fatal(err)
	}
	digest := types.Hash([]byte("ready"))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := scheme.Sign(kp, digest); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("%v allocations per signature, want 1", allocs)
	}
}

// BenchmarkSign times one signature of a statement digest through the
// scheme and in the standard library. The -cold variant writes over an
// 8 MiB buffer before each signature, outside the timer, so it starts
// from caches other work has evicted (the base point's 30 KiB table
// among them), as it does in a node.
func BenchmarkSign(b *testing.B) {
	scheme, _ := NewScheme(SchemeEd25519, nil)
	kp, err := scheme.GenerateKey(NewDeterministicRand(1))
	if err != nil {
		b.Fatal(err)
	}
	seed := make([]byte, ed25519.SeedSize)
	NewDeterministicRand(1).Read(seed)
	priv := ed25519.NewKeyFromSeed(seed)
	digest := types.Hash([]byte("echo"))
	viaScheme := func() { scheme.Sign(kp, digest) }
	evict := make([]byte, 8<<20)
	for _, c := range []struct {
		name string
		sign func()
		cold bool
	}{
		{"scheme", viaScheme, false},
		{"scheme-cold", viaScheme, true},
		{"stdlib", func() { ed25519.Sign(priv, digest[:]) }, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				if c.cold {
					b.StopTimer()
					for j := range evict {
						evict[j] = byte(i + j)
					}
					b.StartTimer()
				}
				c.sign()
			}
		})
	}
}

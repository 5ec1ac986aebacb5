package crypto

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/ed25519"
	"encoding/hex"
	"math/big"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto/edwards25519"
	"github.com/zeroloss/zlb/internal/types"
)

// The eight points of order dividing 8, the curve's torsion.
var smallOrderPoints = []string{
	"0100000000000000000000000000000000000000000000000000000000000000", // identity
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // order 2
	"0000000000000000000000000000000000000000000000000000000000000000", // order 4
	"0000000000000000000000000000000000000000000000000000000000000080", // order 4
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", // order 8
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85", // order 8
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a", // order 8
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa", // order 8
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func TestSmallOrderPoints(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range smallOrderPoints {
		p, err := new(edwards25519.Point).SetBytes(mustHex(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		q := new(edwards25519.Point).Set(p)
		for range 3 {
			q.Add(q, q)
		}
		if got := hex.EncodeToString(q.Bytes()); got != smallOrderPoints[0] {
			t.Errorf("%s: 8P = %s, not the identity", s, got)
		}
		seen[hex.EncodeToString(p.Bytes())] = true
	}
	if len(seen) != 8 {
		t.Fatalf("%d distinct torsion points, want 8", len(seen))
	}
}

// nonCanonical encodes y+p, for y < 19, with the given sign bit: an
// encoding whose field element is not reduced.
func nonCanonical(y byte, sign bool) []byte {
	b := make([]byte, 32)
	b[0] = 0xed + y%19
	for i := 1; i < 31; i++ {
		b[i] = 0xff
	}
	b[31] = 0x7f
	if sign {
		b[31] |= 0x80
	}
	return b
}

// order is ℓ, the order of the prime subgroup.
var order, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// littleEndian converts between a little-endian 32-byte string and an
// integer.
func littleEndian(b []byte) *big.Int {
	r := make([]byte, len(b))
	for i := range b {
		r[len(b)-1-i] = b[i]
	}
	return new(big.Int).SetBytes(r)
}

func putLittleEndian(dst []byte, n *big.Int) {
	be := n.FillBytes(make([]byte, len(dst)))
	for i := range be {
		dst[len(dst)-1-i] = be[i]
	}
}

// mutations is how many ways mutate has to alter a signed statement.
const mutations = 12

// mutate signs msg under a key derived from keySeed and alters the key or
// the signature in the way op selects, with arg as its parameter.
func mutate(keySeed int64, msg, raw []byte, op, arg byte) (PublicKey, Signature) {
	seed := make([]byte, ed25519.SeedSize)
	NewDeterministicRand(keySeed).Read(seed)
	priv := ed25519.NewKeyFromSeed(seed)
	pub := PublicKey(priv.Public().(ed25519.PublicKey))
	sig := Signature(ed25519.Sign(priv, msg))
	switch op % mutations {
	case 0: // as signed
	case 1: // a bit of R
		sig[int(arg)%32] ^= 1 << (arg >> 5)
	case 2: // a bit of S
		sig[32+int(arg)%32] ^= 1 << (arg >> 5)
	case 3: // S + ℓ, S + 2ℓ, …: the same residue, not canonical
		s := littleEndian(sig[32:])
		putLittleEndian(sig[32:], s.Add(s, new(big.Int).Mul(order, big.NewInt(int64(1+arg%8)))))
	case 4: // the three high bits of sig[63]
		sig[63] |= 0x20 << (arg % 3)
	case 5: // a non-canonical A
		pub = nonCanonical(arg, arg&0x80 != 0)
	case 6: // a non-canonical R
		copy(sig[:32], nonCanonical(arg, arg&0x80 != 0))
	case 7: // a small-order A
		pub = mustHex(smallOrderPoints[arg%8])
	case 8: // small-order A and R, S = 0: [k](−A) = R holds for some
		pub = mustHex(smallOrderPoints[arg%8])
		copy(sig[:32], mustHex(smallOrderPoints[(arg>>3)%8]))
		clear(sig[32:])
	case 9: // A with a small-order component
		A, _ := new(edwards25519.Point).SetBytes(pub)
		T, _ := new(edwards25519.Point).SetBytes(mustHex(smallOrderPoints[arg%8]))
		pub = A.Add(A, T).Bytes()
	case 10: // wrong lengths
		switch arg % 4 {
		case 0:
			sig = sig[:int(arg)%64]
		case 1:
			sig = append(sig, arg)
		case 2:
			pub = pub[:int(arg)%32]
		case 3:
			pub = append(pub, arg)
		}
	case 11: // whatever bytes the fuzzer chose
		sig = raw
	}
	return pub, sig
}

// stdlibVerify is the oracle: the standard library's verdict, false for
// a key it would panic on.
func stdlibVerify(pub PublicKey, msg []byte, sig Signature) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

// checkAllTables checks (pub, msg, sig) against the oracle with a table
// built for the one check, with the table Register builds, and three
// times through a fresh registry's wallet-key cache: a valid signature's
// first two checks build the key's table and its third reads it, and a
// failing signature builds none. A failing signature is then checked once
// more under the table two accepted checks would have built. It reports
// the oracle's verdict, and whether pub got a registered and a cached
// table (every key that decodes to a point gets both).
func checkAllTables(t *testing.T, pub PublicKey, msg []byte, sig Signature) (accepted, registered bool) {
	t.Helper()
	want := stdlibVerify(pub, msg, sig)
	if got := verifyEd25519(pub, msg, sig, nil); got != want {
		t.Fatalf("table per check: got %v, stdlib %v\npub %x\nmsg %x\nsig %x", got, want, pub, msg, sig)
	}
	kt := newKeyTable(pub, edwards25519.KeyShape)
	if kt != nil {
		if got := verifyEd25519(pub, msg, sig, kt); got != want {
			t.Fatalf("registered table: got %v, stdlib %v\npub %x\nmsg %x\nsig %x", got, want, pub, msg, sig)
		}
	}
	reg := NewRegistry(SchemeEd25519)
	for check := range 3 {
		if got := reg.verify(pub, msg, sig); got != want {
			t.Fatalf("wallet-key cache, check %d: got %v, stdlib %v\npub %x\nmsg %x\nsig %x", check+1, got, want, pub, msg, sig)
		}
	}
	st := reg.wallets.snapshot()
	if want && (st.Builds != 1 || st.Hits != 1) || !want && st.Builds != 0 {
		t.Fatalf("wallet-key cache after three checks, stdlib %v: %+v\npub %x", want, st, pub)
	}
	if !want && kt != nil {
		reg.wallets.accepted(pub)
		reg.wallets.accepted(pub)
		if got := reg.verify(pub, msg, sig); got || reg.wallets.snapshot().Hits != 1 {
			t.Fatalf("cached table: got %v, stdlib false, %+v\npub %x\nmsg %x\nsig %x", got, reg.wallets.snapshot(), pub, msg, sig)
		}
	}
	return want, kt != nil
}

func FuzzVerifyMatchesStdlib(f *testing.F) {
	for op := range byte(mutations) {
		for _, arg := range []byte{0, 9, 0x47, 0x80, 0xc3, 0xff} {
			f.Add(int64(op)+1, []byte("statement"), []byte("raw"), op, arg)
		}
	}
	f.Add(int64(7), []byte{}, make([]byte, 64), byte(11), byte(0))
	f.Fuzz(func(t *testing.T, keySeed int64, msg, raw []byte, op, arg byte) {
		pub, sig := mutate(keySeed, msg, raw, op, arg)
		checkAllTables(t, pub, msg, sig)
	})
}

// TestMutationsAcceptAndReject runs every mutation over many arguments,
// so each seed shape is covered on a plain `go test`, and shows that the
// oracle accepts some of the small-order cases: agreement there is
// agreement on acceptance, not only on rejection. The small-order and
// mixed-order keys are checked under registered and cached tables too.
func TestMutationsAcceptAndReject(t *testing.T) {
	accepted := make([]int, mutations)
	registered := make([]int, mutations)
	for op := range byte(mutations) {
		for arg := range 256 {
			pub, sig := mutate(int64(arg), []byte{byte(arg), op}, []byte{byte(arg)}, op, byte(arg))
			ok, reg := checkAllTables(t, pub, []byte{byte(arg), op}, sig)
			if ok {
				accepted[op]++
			}
			if reg {
				registered[op]++
			}
		}
	}
	if accepted[0] != 256 {
		t.Errorf("%d of 256 untouched signatures accepted", accepted[0])
	}
	if accepted[8] == 0 {
		t.Error("no small-order A, R with S = 0 accepted: the accepting edge is not exercised")
	}
	for _, op := range []int{7, 8, 9} { // small-order A, and A plus a torsion point
		if registered[op] != 256 {
			t.Errorf("mutation %d: %d of 256 keys checked under registered and cached tables", op, registered[op])
		}
	}
	t.Logf("accepted per mutation: %v", accepted)
}

// TestSupercopVectors checks the standard library's selection of the
// SUPERCOP test vectors (testdata/sign.input.gz, copied from Go's
// crypto/ed25519): the key expanded from each vector's seed signs its
// message into the vector's signature, which verifies with every table
// source, the wallet-key cache's included, and no longer does with one
// bit of it flipped.
func TestSupercopVectors(t *testing.T) {
	f, err := os.Open("testdata/sign.input.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	z, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(z)
	lines := 0
	for sc.Scan() {
		lines++
		parts := strings.Split(sc.Text(), ":")
		if len(parts) != 5 {
			t.Fatalf("line %d: %d parts", lines, len(parts))
		}
		pub, msg, sig := PublicKey(mustHex(parts[1])), mustHex(parts[2]), Signature(mustHex(parts[3])[:ed25519.SignatureSize])
		seed := (*[32]byte)(mustHex(parts[0])[:ed25519.SeedSize])
		key := newEdKey(seed)
		if !bytes.Equal(key.pub[:], pub) {
			t.Fatalf("line %d: seed expands to public key %x, want %x", lines, key.pub, pub)
		}
		if got := key.sign(msg); !bytes.Equal(got, sig) {
			t.Fatalf("line %d: signed %x, want %x", lines, got, sig)
		}
		if ok, reg := checkAllTables(t, pub, msg, sig); !ok || !reg {
			t.Fatalf("line %d: vector rejected, or its key got no table", lines)
		}
		bad := append(Signature(nil), sig...)
		bad[lines%64] ^= 1 << (lines % 8)
		if ok, _ := checkAllTables(t, pub, msg, bad); ok {
			t.Fatalf("line %d: altered vector accepted", lines)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 128 {
		t.Fatalf("%d vectors, want 128", lines)
	}
}

// A check allocates nothing: under a registered key the key table is
// shared, under a wallet's seen before the cache's table is, under one
// seen for the first time the one-chunk table is built on the stack, and
// the rest of the check lives on the stack too.
func TestRegisteredKeyCheckAllocatesNothing(t *testing.T) {
	signers, reg, err := GenerateCluster(SchemeEd25519, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	digest := types.Hash([]byte("echo"))
	sig, err := signers[1].Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := reg.PublicKeyOf(2)
	if reg.keyTable(pub) == nil {
		t.Fatal("a registered key has no table")
	}
	wallet, err := NewScheme(SchemeEd25519, nil)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewScheme(SchemeEd25519, NewRegistry(SchemeEd25519))
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // the second accepted check builds the cached table
		cached.Verify(pub, digest, sig)
	}
	for name, scheme := range map[string]Scheme{"registered": signers[0].scheme, "wallet": wallet, "cached wallet": cached} {
		if allocs := testing.AllocsPerRun(100, func() {
			if !scheme.Verify(pub, digest, sig) {
				t.Fatal("valid signature rejected")
			}
		}); allocs != 0 {
			t.Errorf("%v allocations per check under a %s key, want 0", allocs, name)
		}
	}
	if st := cached.(edScheme).KeyCacheStats(); st.Tables != 1 || st.Builds != 1 || st.Hits < 100 {
		t.Errorf("cache after one key checked 100 times and more: %+v", st)
	}
}

// Checks run on several goroutines while the registry is still
// registering keys, and while its wallet-key cache admits and evicts
// tables: a key's verdict does not depend on whether its table is in
// place yet, every registered key ends with one, and the cache ends full
// with every eviction counted.
func TestChecksWhileKeysRegister(t *testing.T) {
	const keys, workers = 24, 4
	reg := NewRegistry(SchemeEd25519)
	scheme, err := NewScheme(SchemeEd25519, reg)
	if err != nil {
		t.Fatal(err)
	}
	rand := NewDeterministicRand(5)
	digest := types.Hash([]byte("aux"))
	sign := func(n int) ([]*KeyPair, []Signature) {
		kps := make([]*KeyPair, n)
		sigs := make([]Signature, n)
		for i := range kps {
			if kps[i], err = scheme.GenerateKey(rand); err != nil {
				t.Fatal(err)
			}
			if sigs[i], err = scheme.Sign(kps[i], digest); err != nil {
				t.Fatal(err)
			}
		}
		return kps, sigs
	}
	kps, sigs := sign(keys)
	// Wallet keys beyond the cache's bound, each checked twice by one
	// worker and once by the next: every one is admitted, and the first
	// ones are evicted.
	wallets, walletSigs := sign(walletKeys + 64)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for i, kp := range kps {
					if !scheme.Verify(kp.Public(), digest, sigs[i]) {
						t.Errorf("worker %d round %d: key %d rejected its signature", w, round, i)
					}
					if scheme.Verify(kp.Public(), digest, sigs[(i+1)%keys]) {
						t.Errorf("worker %d round %d: key %d accepted another key's signature", w, round, i)
					}
				}
			}
			for i, kp := range wallets {
				if i%workers != w && i%workers != (w+1)%workers {
					continue
				}
				for check := range 2 {
					if !scheme.Verify(kp.Public(), digest, walletSigs[i]) {
						t.Errorf("worker %d: wallet key %d rejected its signature on check %d", w, i, check+1)
					}
				}
				if scheme.Verify(kp.Public(), digest, walletSigs[(i+1)%len(wallets)]) {
					t.Errorf("worker %d: wallet key %d accepted another key's signature", w, i)
				}
			}
		}()
	}
	for i, kp := range kps {
		if err := reg.Register(types.ReplicaID(i+1), kp); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, kp := range kps {
		if reg.keyTable(kp.Public()) == nil {
			t.Fatalf("key %d registered without a table", i)
		}
	}
	st := reg.wallets.snapshot()
	if st.Tables != walletKeys || st.Evictions == 0 || st.Builds != uint64(st.Tables)+st.Evictions {
		t.Fatalf("wallet-key cache after %d keys: %+v, want %d tables and every build held or evicted", len(wallets), st, walletKeys)
	}
	t.Logf("wallet-key cache: %+v", st)
}

// TestKeyCacheBound admits ten times the cache's bound in distinct keys,
// each by two accepted checks, and holds the cache to walletKeys tables
// throughout: past the bound every new table evicts the oldest, and the
// set of keys accepted once stays bounded too. A key accepted once gets
// no table. The bytes it reports are its tables × one table's, and the
// bound's bytes are within the 7.5 MiB the package README states.
func TestKeyCacheBound(t *testing.T) {
	const documented = 7.5 * (1 << 20)
	if walletTableBytes <= 0 || walletKeys*walletTableBytes > documented {
		t.Fatalf("%d tables of %d bytes exceed the documented %d bytes", walletKeys, walletTableBytes, int(documented))
	}
	reg := NewRegistry(SchemeEd25519)
	scheme, err := NewScheme(SchemeEd25519, reg)
	if err != nil {
		t.Fatal(err)
	}
	rand := NewDeterministicRand(6)
	once, err := scheme.GenerateKey(rand)
	if err != nil {
		t.Fatal(err)
	}
	digest := types.Hash([]byte("pay"))
	sig, err := scheme.Sign(once, digest)
	if err != nil {
		t.Fatal(err)
	}
	if !scheme.Verify(once.Public(), digest, sig) || reg.keyTable(once.Public()) != nil {
		t.Fatal("a key accepted once got a table")
	}
	const distinct = 10 * walletKeys
	for i := range distinct {
		kp, err := scheme.GenerateKey(rand)
		if err != nil {
			t.Fatal(err)
		}
		reg.wallets.accepted(kp.Public())
		reg.wallets.accepted(kp.Public())
		if reg.keyTable(kp.Public()) == nil {
			t.Fatalf("key %d: no table after its second accepted check", i)
		}
		reg.wallets.mu.Lock()
		tables, seen := len(reg.wallets.tables), len(reg.wallets.seen)
		reg.wallets.mu.Unlock()
		if tables > walletKeys || seen > walletKeys {
			t.Fatalf("after %d keys: %d tables and %d keys accepted once, bound %d", i+1, tables, seen, walletKeys)
		}
		if st := reg.wallets.snapshot(); st.Bytes != st.Tables*walletTableBytes {
			t.Fatalf("after %d keys: %d tables reported as %d bytes, want %d each", i+1, st.Tables, st.Bytes, walletTableBytes)
		}
	}
	st := reg.wallets.snapshot()
	if st.Tables != walletKeys || st.Builds != distinct || st.Evictions != distinct-walletKeys || st.Hits != distinct {
		t.Fatalf("after %d keys: %+v", distinct, st)
	}
}

// A check that fails is no sighting of its key: bad signatures under a
// fresh key build no table and leave nothing in the cache, one between
// two accepted checks does not make the second build, and the key's
// table is built at its second accepted check and read from the third.
func TestRejectedChecksBuildNoTable(t *testing.T) {
	reg := NewRegistry(SchemeEd25519)
	scheme, err := NewScheme(SchemeEd25519, reg)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := scheme.GenerateKey(NewDeterministicRand(7))
	if err != nil {
		t.Fatal(err)
	}
	digest := types.Hash([]byte("pay"))
	sig, err := scheme.Sign(kp, digest)
	if err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(sig)
	bad[40] ^= 1
	check := func(s Signature, want bool, builds, hits uint64) {
		t.Helper()
		if got := scheme.Verify(kp.Public(), digest, s); got != want {
			t.Fatalf("verdict %v, want %v", got, want)
		}
		if st := reg.wallets.snapshot(); st.Builds != builds || st.Hits != hits {
			t.Fatalf("after a check with verdict %v: %+v, want %d builds and %d hits", want, st, builds, hits)
		}
	}
	for range 5 {
		check(bad, false, 0, 0)
	}
	reg.wallets.mu.Lock()
	seen := len(reg.wallets.seen)
	reg.wallets.mu.Unlock()
	if seen != 0 {
		t.Fatalf("%d keys remembered after rejected checks only", seen)
	}
	check(sig, true, 0, 0)
	check(bad, false, 0, 0)
	check(sig, true, 1, 0)
	check(sig, true, 1, 1)
	check(bad, false, 1, 2)
}

// BenchmarkVerify times one check under a registered key, under a
// wallet's seen for the first time (unregistered), under one the
// wallet-key cache holds a table for (cached), in the standard library,
// and a wallet key's second accepted check, which builds the key's table
// after the check (second; each iteration's key is new, made and checked
// once outside the timer). The -cold variants write over an 8 MiB buffer
// before each check, outside the timer, so the check starts from caches
// other work has evicted, as it does in a node.
func BenchmarkVerify(b *testing.B) {
	signers, reg, err := GenerateCluster(SchemeEd25519, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	digest := types.Hash([]byte("echo"))
	sig, _ := signers[1].Sign(digest)
	pub, _ := reg.PublicKeyOf(2)
	wallet, _ := NewScheme(SchemeEd25519, nil)
	cache, _ := NewScheme(SchemeEd25519, NewRegistry(SchemeEd25519))
	registered := func() bool { return signers[0].scheme.Verify(pub, digest, sig) }
	unregistered := func() bool { return wallet.Verify(pub, digest, sig) }
	cached := func() bool { return cache.Verify(pub, digest, sig) }
	builds, _ := NewScheme(SchemeEd25519, NewRegistry(SchemeEd25519))
	rand := NewDeterministicRand(8)
	var freshPub PublicKey
	var freshSig Signature
	fresh := func() {
		kp, err := builds.GenerateKey(rand)
		if err != nil {
			b.Fatal(err)
		}
		freshPub = kp.Public()
		if freshSig, err = builds.Sign(kp, digest); err != nil {
			b.Fatal(err)
		}
		if !builds.Verify(freshPub, digest, freshSig) {
			b.Fatal("first check rejected")
		}
	}
	second := func() bool { return builds.Verify(freshPub, digest, freshSig) }
	evict := make([]byte, 8<<20)
	evictCaches := func() {
		for j := range evict {
			evict[j] = byte(j)
		}
	}
	for _, c := range []struct {
		name   string
		verify func() bool
		before func() // outside the timer, before each check
	}{
		{"registered", registered, nil},
		{"unregistered", unregistered, nil},
		{"cached", cached, nil},
		{"second", second, fresh},
		{"stdlib", func() bool { return ed25519.Verify(ed25519.PublicKey(pub), digest[:], sig) }, nil},
		{"registered-cold", registered, evictCaches},
		{"unregistered-cold", unregistered, evictCaches},
		{"cached-cold", cached, evictCaches},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if c.before != nil {
					b.StopTimer()
					c.before()
					b.StartTimer()
				}
				if !c.verify() {
					b.Fatal("rejected")
				}
			}
		})
	}
}

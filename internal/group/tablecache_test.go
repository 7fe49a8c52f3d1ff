package group

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// openTestCache opens a cache in a fresh temp dir.
func openTestCache(t testing.TB) *TableCache {
	t.Helper()
	tc, err := OpenTableCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// TestTableCacheRoundTrip pins the low-level limb round trip and the
// counter semantics.
func TestTableCacheRoundTrip(t *testing.T) {
	tc := openTestCache(t)
	p := TestParams()
	payload := []uint64{1, 2, 3, 0xdeadbeef, ^uint64(0)}
	if _, ok := tc.LoadLimbs(p, "kind", []byte("key"), []int64{5}, len(payload)); ok {
		t.Fatal("load hit before store")
	}
	tc.StoreLimbs(p, "kind", []byte("key"), []int64{5}, payload)
	got, ok := tc.LoadLimbs(p, "kind", []byte("key"), []int64{5}, len(payload))
	if !ok {
		t.Fatal("load missed after store")
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("limb %d: got %d, want %d", i, got[i], payload[i])
		}
	}
	// A different key, shape, kind or group must not alias the entry.
	if _, ok := tc.LoadLimbs(p, "kind", []byte("other"), []int64{5}, len(payload)); ok {
		t.Fatal("different key hit")
	}
	if _, ok := tc.LoadLimbs(p, "kind", []byte("key"), []int64{6}, len(payload)); ok {
		t.Fatal("different shape hit")
	}
	if _, ok := tc.LoadLimbs(p, "kind2", []byte("key"), []int64{5}, len(payload)); ok {
		t.Fatal("different kind hit")
	}
	if _, ok := tc.LoadLimbs(PaperParams(), "kind", []byte("key"), []int64{5}, len(payload)); ok {
		t.Fatal("different group hit")
	}
	st := tc.Stats()
	if st.Hits != 1 || st.Misses != 5 || st.Writes != 1 || st.Rejects != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// cacheFiles lists the cache's .tbl files.
func cacheFiles(t *testing.T, tc *TableCache) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(tc.Dir(), "*.tbl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files (%v)", err)
	}
	return files
}

// TestTableCacheFailureModes exercises every refuse-and-rebuild path the
// loader has: truncation, a flipped payload byte (checksum mismatch), a
// wrong params fingerprint and a wrong format version — the latter two
// with correctly recomputed trailers, so only the targeted check can
// catch them. Each must fall back to derivation (miss the load) without
// panicking, and count a reject.
func TestTableCacheFailureModes(t *testing.T) {
	p := TestParams()
	payload := []uint64{10, 20, 30, 40}
	key := []byte("k")
	shape := []int64{4}

	write := func(t *testing.T, tc *TableCache) string {
		t.Helper()
		tc.StoreLimbs(p, "fm", key, shape, payload)
		return cacheFiles(t, tc)[0]
	}
	reseal := func(raw []byte) []byte {
		sum := sha256.Sum256(raw[:len(raw)-sha256.Size])
		copy(raw[len(raw)-sha256.Size:], sum[:])
		return raw
	}
	cases := []struct {
		name   string
		tamper func([]byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{"flipped_checksum_byte", func(raw []byte) []byte {
			raw[tableCacheHeader] ^= 0x01 // first payload byte no longer matches the trailer
			return raw
		}},
		{"wrong_fingerprint", func(raw []byte) []byte {
			raw[8] ^= 0xff // fingerprint field
			return reseal(raw)
		}},
		{"wrong_version", func(raw []byte) []byte {
			binary.LittleEndian.PutUint32(raw[4:8], tableCacheVersion+1)
			return reseal(raw)
		}},
		{"wrong_magic", func(raw []byte) []byte {
			raw[0] = 'X'
			return reseal(raw)
		}},
		{"wrong_length", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[40:48], 3)
			return reseal(raw)
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			tc := openTestCache(t)
			file := write(t, tc)
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, tt.tamper(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := tc.LoadLimbs(p, "fm", key, shape, len(payload)); ok {
				t.Fatal("tampered file accepted")
			}
			if st := tc.Stats(); st.Rejects != 1 {
				t.Fatalf("rejects = %d, want 1", st.Rejects)
			}
			// The write-back path must overwrite the refused file in place
			// and make the next load clean again — no stale math survives.
			tc.StoreLimbs(p, "fm", key, shape, payload)
			got, ok := tc.LoadLimbs(p, "fm", key, shape, len(payload))
			if !ok {
				t.Fatal("rebuilt entry not loadable")
			}
			for i := range payload {
				if got[i] != payload[i] {
					t.Fatal("rebuilt entry corrupt")
				}
			}
		})
	}
}

// TestTableCacheWarmStartDerivesNothing is the cold-start acceptance
// test: after one process seeds the cache, a second process (fresh Params
// of the same constants, fresh TableCache handle) must build its generator
// comb, a FEBO-style single-key comb and a FEIP-style key batch purely from
// disk — zero misses, zero derivations — and the loaded combs must agree
// with derived arithmetic.
func TestTableCacheWarmStartDerivesNothing(t *testing.T) {
	dir := t.TempDir()
	ref := PaperParams()
	h := ref.Exp(ref.G, big.NewInt(987654321))
	hs := []*big.Int{ref.Exp(ref.G, big.NewInt(11)), ref.Exp(ref.G, big.NewInt(13))}

	boot := func() (*Params, *TableCache, []*FixedBaseComb) {
		tc, err := OpenTableCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := PaperParams()
		p.UseTableCache(tc)
		p.generator()
		combs := append([]*FixedBaseComb{p.NewFixedBaseComb(h)}, p.NewFixedBaseCombs(hs)...)
		return p, tc, combs
	}

	_, tc1, _ := boot()
	st1 := tc1.Stats()
	if st1.Writes != 3 || st1.Hits != 0 {
		t.Fatalf("cold boot stats = %+v, want one write per comb file", st1)
	}

	p2, tc2, combs2 := boot()
	st2 := tc2.Stats()
	if st2.Misses != 0 || st2.Rejects != 0 {
		t.Fatalf("warm boot derived tables: stats = %+v", st2)
	}
	if st2.Hits != st1.Writes {
		t.Fatalf("warm boot hits = %d, want %d (one per seeded table)", st2.Hits, st1.Writes)
	}
	if st2.Writes != 0 {
		t.Fatalf("warm boot rewrote %d tables", st2.Writes)
	}

	// Loaded combs must compute exactly what derived ones do.
	rng := rand.New(rand.NewSource(41))
	dst := p2.Mont().Elem()
	for i := 0; i < 10; i++ {
		e, err := ref.RandScalar(rng)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p2.PowG(e), ref.Exp(ref.G, e); got.Cmp(want) != 0 {
			t.Fatalf("cached PowG(%v) = %v, want %v", e, got, want)
		}
		for j, base := range append([]*big.Int{h}, hs...) {
			combs2[j].PowMont(dst, e)
			if got, want := p2.Mont().FromMont(dst), ref.Exp(base, e); got.Cmp(want) != 0 {
				t.Fatalf("cached key comb %d Pow(%v) mismatch", j, e)
			}
		}
	}
}

// TestTableCacheIgnoresRetiredKinds: a directory left behind by a build
// that persisted signed-window tables (the retired fbwin kind) boots
// clean — the stale files are never opened, so they count as neither
// rejects nor hits, and are left in place.
func TestTableCacheIgnoresRetiredKinds(t *testing.T) {
	tc := openTestCache(t)
	stale := filepath.Join(tc.Dir(), "fbwin-0123456789abcdef01234567.tbl")
	if err := os.WriteFile(stale, []byte("CNTC not a current table"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := TestParams()
	p.UseTableCache(tc)
	p.generator()
	p.NewFixedBaseComb(p.Exp(p.G, big.NewInt(5)))
	if st := tc.Stats(); st.Rejects != 0 || st.Hits != 0 || st.Misses != 2 || st.Writes != 2 {
		t.Fatalf("stats with a stale fbwin file = %+v", st)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("stale file disturbed: %v", err)
	}
}

// TestTableCacheGlobalFallback pins the SetTableCache/UseTableCache
// resolution order.
func TestTableCacheGlobalFallback(t *testing.T) {
	global := openTestCache(t)
	local := openTestCache(t)
	SetTableCache(global)
	defer SetTableCache(nil)
	p := TestParams()
	if p.TableCache() != global {
		t.Fatal("global cache not picked up")
	}
	p.UseTableCache(local)
	if p.TableCache() != local {
		t.Fatal("per-Params override not picked up")
	}
	if TestParams().TableCache() != global {
		t.Fatal("override leaked across Params")
	}
}

// BenchmarkColdStart measures process cold start of the generator
// precomputation (comb + dense slab): derive is the no-cache baseline, load
// the warm-cache path the -table-cache flag buys (the slab is rebuilt
// either way). Fresh Params per iteration defeat the sync.Once
// memoization, exactly like a fresh process.
func BenchmarkColdStart(b *testing.B) {
	b.Run("derive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PaperParams().generator()
		}
	})
	b.Run("load", func(b *testing.B) {
		tc, err := OpenTableCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		seed := PaperParams()
		seed.UseTableCache(tc)
		seed.generator()
		seeded := tc.Stats() // the seed's own misses and writes
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := PaperParams()
			p.UseTableCache(tc)
			p.generator()
		}
		b.StopTimer()
		if st := tc.Stats(); st.Misses != seeded.Misses || st.Rejects != 0 {
			b.Fatalf("warm loads derived tables: %+v", st)
		}
	})
}

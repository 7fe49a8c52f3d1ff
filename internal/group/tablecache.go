package group

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Persisted precompute cache.
//
// Every long-lived precomputed structure — comb slabs here, baby-step
// tables in dlog — is a flat little-endian uint64 limb slab in the
// Montgomery domain. Deriving them is pure compute that every process
// repeats identically: ~10^3 group multiplications per comb and O(√bound)
// for a dlog core, multiplied by η per-key combs for a serving fleet. (The
// generator's dense slab and the per-ciphertext ephemeral tables are
// cheaper to rebuild than to hash, and are never persisted.) A TableCache
// persists each slab to disk, keyed by a fingerprint of everything the
// contents depend on (group constants, base, table shape), so a warm
// process boots by reading limbs instead of deriving them — milliseconds
// instead of seconds at scale.
//
// Trust model: cache files are local state with the same integrity needs
// as the binary itself. The format still carries a SHA-256 of the payload
// plus the full fingerprint, so a truncated, corrupted, renamed or
// stale-format file is detected and *refused* — the caller falls back to
// in-process derivation and overwrites the bad file on the write-back.
// Loads never trust file contents into arithmetic without the checksum
// and fingerprint matching; there is no partial acceptance.
//
// File layout (all integers little-endian):
//
//	magic   [4]byte  "CNTC"
//	version uint32   tableCacheVersion
//	fprint  [32]byte SHA-256 over kind/params/key/shape (see fingerprint)
//	count   uint64   payload length in limbs
//	payload count × uint64
//	trailer [32]byte SHA-256 over everything above
//
// The version lives in the header, not the fingerprint: a format bump
// changes no file names, so outdated files are found, rejected, and
// overwritten in place rather than orphaned on disk. See
// docs/TABLE_CACHE.md for the bump procedure.

// tableCacheVersion is the on-disk format version; bump on any layout
// change (docs/TABLE_CACHE.md describes the procedure).
const tableCacheVersion = 1

var tableCacheMagic = [4]byte{'C', 'N', 'T', 'C'}

// TableCacheStats is a snapshot of a cache's load/store counters.
type TableCacheStats struct {
	// Hits counts loads served from a valid cache file.
	Hits uint64
	// Misses counts loads where no cache file existed.
	Misses uint64
	// Writes counts successful write-backs.
	Writes uint64
	// Rejects counts files that existed but were refused: bad magic,
	// wrong version, fingerprint mismatch, wrong length, bad checksum.
	Rejects uint64
}

// TableCache is a directory of persisted precompute slabs. The zero value
// is not usable; open one with OpenTableCache. All methods are safe for
// concurrent use.
type TableCache struct {
	dir                           string
	hits, misses, writes, rejects atomic.Uint64
}

// OpenTableCache opens (creating if needed) a precompute cache rooted at
// dir.
func OpenTableCache(dir string) (*TableCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("group: table cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("group: opening table cache: %w", err)
	}
	return &TableCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (tc *TableCache) Dir() string { return tc.dir }

// Stats returns a snapshot of the cache counters.
func (tc *TableCache) Stats() TableCacheStats {
	return TableCacheStats{
		Hits:    tc.hits.Load(),
		Misses:  tc.misses.Load(),
		Writes:  tc.writes.Load(),
		Rejects: tc.rejects.Load(),
	}
}

// String formats the counters the way the binaries log them.
func (s TableCacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d writes=%d rejects=%d", s.Hits, s.Misses, s.Writes, s.Rejects)
}

// fingerprint hashes everything the cached limbs are a pure function of:
// the kind tag, the group constants, the caller's key material (e.g. the
// base, or a whole key's bases) and the table shape. Each segment is
// length-prefixed so distinct inputs cannot collide by concatenation.
func fingerprint(p *Params, kind string, key []byte, shape []int64) [32]byte {
	h := sha256.New()
	seg := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	seg([]byte(kind))
	seg(p.P.Bytes())
	seg(p.Q.Bytes())
	seg(p.G.Bytes())
	seg(key)
	var sb []byte
	for _, s := range shape {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(s))
		sb = append(sb, n[:]...)
	}
	seg(sb)
	var fp [32]byte
	h.Sum(fp[:0])
	return fp
}

// path maps a fingerprint to its file: the kind tag for the human, the
// fingerprint prefix for uniqueness.
func (tc *TableCache) path(kind string, fp [32]byte) string {
	return filepath.Join(tc.dir, kind+"-"+hex.EncodeToString(fp[:12])+".tbl")
}

const tableCacheHeader = 4 + 4 + 32 + 8 // magic + version + fingerprint + count

// LoadLimbs loads the cached slab for (kind, key, shape) under p,
// requiring exactly want limbs. It returns (nil, false) on a miss or on
// any integrity failure — the caller derives instead, and a later
// StoreLimbs overwrites the refused file.
func (tc *TableCache) LoadLimbs(p *Params, kind string, key []byte, shape []int64, want int) ([]uint64, bool) {
	fp := fingerprint(p, kind, key, shape)
	raw, err := os.ReadFile(tc.path(kind, fp))
	if err != nil {
		tc.misses.Add(1)
		return nil, false
	}
	if len(raw) < tableCacheHeader+sha256.Size ||
		[4]byte(raw[:4]) != tableCacheMagic ||
		binary.LittleEndian.Uint32(raw[4:8]) != tableCacheVersion {
		tc.rejects.Add(1)
		return nil, false
	}
	body := raw[:len(raw)-sha256.Size]
	if sha256.Sum256(body) != [32]byte(raw[len(body):]) {
		tc.rejects.Add(1)
		return nil, false
	}
	if [32]byte(raw[8:40]) != fp {
		tc.rejects.Add(1)
		return nil, false
	}
	n := binary.LittleEndian.Uint64(raw[40:48])
	if n != uint64(want) || uint64(len(body)-tableCacheHeader) != 8*n {
		tc.rejects.Add(1)
		return nil, false
	}
	limbs := make([]uint64, want)
	for i := range limbs {
		limbs[i] = binary.LittleEndian.Uint64(body[tableCacheHeader+8*i:])
	}
	tc.hits.Add(1)
	return limbs, true
}

// StoreLimbs writes the slab for (kind, key, shape) under p, atomically
// replacing any existing file (including one LoadLimbs refused). Write
// failures are silent: the cache is an accelerator, not a dependency, and
// the caller already holds the derived table.
func (tc *TableCache) StoreLimbs(p *Params, kind string, key []byte, shape []int64, payload []uint64) {
	fp := fingerprint(p, kind, key, shape)
	buf := make([]byte, tableCacheHeader+8*len(payload)+sha256.Size)
	copy(buf, tableCacheMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], tableCacheVersion)
	copy(buf[8:40], fp[:])
	binary.LittleEndian.PutUint64(buf[40:48], uint64(len(payload)))
	for i, l := range payload {
		binary.LittleEndian.PutUint64(buf[tableCacheHeader+8*i:], l)
	}
	sum := sha256.Sum256(buf[:len(buf)-sha256.Size])
	copy(buf[len(buf)-sha256.Size:], sum[:])
	// Atomic publish: readers only ever see complete files.
	dst := tc.path(kind, fp)
	tmp, err := os.CreateTemp(tc.dir, "."+kind+"-*.tmp")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return
	}
	tc.writes.Add(1)
}

// globalTableCache is the process-wide cache installed by SetTableCache
// (the binaries' -table-cache flag).
var globalTableCache atomic.Pointer[TableCache]

// SetTableCache installs (or, with nil, removes) the process-wide
// precompute cache used by every Params without a per-Params override.
func SetTableCache(tc *TableCache) { globalTableCache.Store(tc) }

// TableCache resolves the cache in effect for this Params: the per-Params
// override when set (tests isolate themselves from the process-wide cache
// with it), else the process-wide cache, else nil (derive everything
// in-process).
func (p *Params) TableCache() *TableCache {
	if tc := p.tblCache.Load(); tc != nil {
		return tc
	}
	return globalTableCache.Load()
}

// cachedComb is newFixedBaseComb behind the table cache.
func (p *Params) cachedComb(base *big.Int, h, v int) *FixedBaseComb {
	tc := p.TableCache()
	if tc == nil {
		return p.newFixedBaseComb(base, h, v)
	}
	c := p.newCombShape(base, h, v)
	shape := []int64{int64(h), int64(v)}
	if payload, ok := tc.LoadLimbs(p, "fbcomb", base.Bytes(), shape, len(c.slab)); ok {
		c.slab = payload
		return c
	}
	c.build()
	tc.StoreLimbs(p, "fbcomb", base.Bytes(), shape, c.slab)
	return c
}

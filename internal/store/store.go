// Package store is the persistent, content-addressed verification
// cache: converged Verifier fixed points, their rendered JSON reports
// and the source they were compiled from, written as self-checking
// blobs keyed by verification fingerprint (verify.Fingerprint — the
// design content hash mixed with the report-relevant options).
//
// The layout is one file per entry under a single directory, named
// <structural-fp>-<key>-<source-key>.scv, so an exact lookup is a
// filename probe, a nearest lookup (any entry sharing the design's
// structure — and, under the analytic model, its parameter point — for
// warm-starting an incremental re-verification of an edited design) is
// a prefix scan, and a source-text lookup — the only probe that needs
// no compiled design at all — matches on the last component.  Writes go through a temp file and an atomic rename —
// readers never observe a partial blob — and every blob carries a
// trailing FNV-64a checksum over its whole content, so truncation or
// bit rot degrades to a cache miss rather than a wrong answer.  The
// directory is size-bounded: after each write, the oldest entries (by
// modification time) are removed until the configured budget holds.
package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	blobMagic   = "SCTV"
	blobVersion = 1
	blobSuffix  = ".scv"

	// DefaultMaxBytes bounds the store directory when Open is given no
	// explicit budget: 256 MiB holds thousands of mid-size designs.
	DefaultMaxBytes = 256 << 20
)

// Store is a size-bounded directory of verification blobs.  All methods
// are safe for concurrent use; cross-process safety comes from the
// atomic-rename write protocol (concurrent writers of the same key race
// benignly — both blobs are valid and one wins).
type Store struct {
	dir      string
	maxBytes int64

	mu sync.Mutex // serializes Put's write+GC sequence within this process
}

// Entry is one stored verification outcome.
type Entry struct {
	Key      uint64 // verify.Fingerprint of (design, options)
	StructFP uint64 // the warm-start key: netlist.StructuralFingerprint, plus the analytic point (warmKey)
	SrcKey   uint64 // SourceKey of (source text, options): the pre-compile probe
	Source   string // the source text the design was compiled from
	Report   []byte // the rendered JSON report, byte-exact
	State    []byte // the encoded verify.Snapshot
}

// Open prepares a store rooted at dir, creating it if needed.
// maxBytes bounds the directory's total size; zero or negative selects
// DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{dir: dir, maxBytes: maxBytes}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func blobName(structFP, key, srcKey uint64) string {
	return fmt.Sprintf("%016x-%016x-%016x%s", structFP, key, srcKey, blobSuffix)
}

// nameParts parses a blob filename back into its three fingerprints.
func nameParts(name string) (structFP, key, srcKey uint64, ok bool) {
	base, found := strings.CutSuffix(name, blobSuffix)
	if !found {
		return 0, 0, 0, false
	}
	var fps [3]uint64
	parts := strings.Split(base, "-")
	if len(parts) != 3 {
		return 0, 0, 0, false
	}
	for i, p := range parts {
		// Every probe parses every name in the directory, so this avoids
		// fmt's scanner.
		v, err := strconv.ParseUint(p, 16, 64)
		if err != nil || len(p) != 16 {
			return 0, 0, 0, false
		}
		fps[i] = v
	}
	return fps[0], fps[1], fps[2], true
}

// Get returns the entry stored under the exact verification key, or
// ok=false on a miss — including every corruption case: a mangled,
// truncated or wrong-version blob reads as a miss.
func (s *Store) Get(key uint64) (*Entry, bool) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, false
	}
	for _, de := range names {
		if _, k, _, ok := nameParts(de.Name()); ok && k == key {
			if e, err := s.read(de.Name()); err == nil && e.Key == key {
				return e, true
			}
		}
	}
	return nil, false
}

// GetBySource returns the entry stored under the source-level key.  src
// is compared byte for byte against the stored source, so a hash
// collision degrades to a miss, never to a wrong report.  This is the
// pre-compile fast path: a hit costs a directory scan and one checksum
// pass, with no parse or elaboration work at all.
func (s *Store) GetBySource(srcKey uint64, src string) (*Entry, bool) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, false
	}
	for _, de := range names {
		if _, _, sk, ok := nameParts(de.Name()); ok && sk == srcKey {
			if e, err := s.read(de.Name()); err == nil && e.SrcKey == srcKey && e.Source == src {
				return e, true
			}
		}
	}
	return nil, false
}

// Nearest returns the most recently written entry whose design shares
// the structural fingerprint — the best snapshot to warm-start an
// incremental re-verification of an edited design from.
func (s *Store) Nearest(structFP uint64) (*Entry, bool) {
	prefix := fmt.Sprintf("%016x-", structFP)
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, false
	}
	type cand struct {
		name string
		mod  int64
	}
	var cands []cand
	for _, de := range names {
		if !strings.HasPrefix(de.Name(), prefix) || !strings.HasSuffix(de.Name(), blobSuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		cands = append(cands, cand{de.Name(), info.ModTime().UnixNano()})
	}
	// Newest first; ties broken by name so the choice is deterministic.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mod != cands[j].mod {
			return cands[i].mod > cands[j].mod
		}
		return cands[i].name > cands[j].name
	})
	for _, c := range cands {
		if e, err := s.read(c.name); err == nil && e.StructFP == structFP {
			return e, true
		}
	}
	return nil, false
}

// Put writes the entry atomically (temp file, fsync-free rename) and
// then enforces the size budget, evicting oldest-first.  The entry it
// just wrote is exempt from its own eviction pass.
func (s *Store) Put(e *Entry) error {
	blob := encodeBlob(e)
	name := blobName(e.StructFP, e.Key, e.SrcKey)
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %v", name, firstErr(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %v", err)
	}
	s.gc(name)
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gc removes oldest entries until the directory fits the budget.  keep
// names the entry the caller just wrote, which is never evicted — a
// store too small for one entry would otherwise thrash.
func (s *Store) gc(keep string) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type ent struct {
		name string
		size int64
		mod  int64
	}
	var ents []ent
	var total int64
	for _, de := range names {
		if !strings.HasSuffix(de.Name(), blobSuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		ents = append(ents, ent{de.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].mod != ents[j].mod {
			return ents[i].mod < ents[j].mod
		}
		return ents[i].name < ents[j].name
	})
	for _, e := range ents {
		if total <= s.maxBytes {
			return
		}
		if e.name == keep {
			continue
		}
		if os.Remove(filepath.Join(s.dir, e.name)) == nil {
			total -= e.size
		}
	}
}

// Len counts the stored entries (including any corrupt ones not yet
// overwritten); it exists for tests and diagnostics.
func (s *Store) Len() int {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range names {
		if strings.HasSuffix(de.Name(), blobSuffix) {
			n++
		}
	}
	return n
}

// Blob layout (little-endian, version 1):
//
//	"SCTV" | u32 version | u64 key | u64 structFP | u64 srcKey
//	| u32 len(source)  | source bytes
//	| u32 len(report)  | report bytes
//	| u32 len(state)   | state bytes
//	| u64 FNV-64a over everything above
func encodeBlob(e *Entry) []byte {
	n := len(blobMagic) + 4 + 8 + 8 + 8 + 4 + len(e.Source) + 4 + len(e.Report) + 4 + len(e.State) + 8
	b := make([]byte, 0, n)
	b = append(b, blobMagic...)
	b = binary.LittleEndian.AppendUint32(b, blobVersion)
	b = binary.LittleEndian.AppendUint64(b, e.Key)
	b = binary.LittleEndian.AppendUint64(b, e.StructFP)
	b = binary.LittleEndian.AppendUint64(b, e.SrcKey)
	for _, sec := range [][]byte{[]byte(e.Source), e.Report, e.State} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sec)))
		b = append(b, sec...)
	}
	return binary.LittleEndian.AppendUint64(b, fnv64(b))
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// read loads and validates one blob.  Every malformed condition is an
// error; callers translate errors to cache misses.
func (s *Store) read(name string) (*Entry, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	if len(b) < len(blobMagic)+4+8+8+8+8 || string(b[:len(blobMagic)]) != blobMagic {
		return nil, fmt.Errorf("store: %s: not a blob", name)
	}
	body, sum := b[:len(b)-8], binary.LittleEndian.Uint64(b[len(b)-8:])
	if fnv64(body) != sum {
		return nil, fmt.Errorf("store: %s: checksum mismatch", name)
	}
	p := body[len(blobMagic):]
	if v := binary.LittleEndian.Uint32(p); v != blobVersion {
		return nil, fmt.Errorf("store: %s: version %d, want %d", name, v, blobVersion)
	}
	p = p[4:]
	e := &Entry{
		Key:      binary.LittleEndian.Uint64(p),
		StructFP: binary.LittleEndian.Uint64(p[8:]),
		SrcKey:   binary.LittleEndian.Uint64(p[16:]),
	}
	p = p[24:]
	var secs [3][]byte
	for i := range secs {
		if len(p) < 4 {
			return nil, fmt.Errorf("store: %s: truncated section header", name)
		}
		n := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if uint32(len(p)) < n {
			return nil, fmt.Errorf("store: %s: truncated section", name)
		}
		secs[i], p = p[:n], p[n:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("store: %s: %d trailing bytes", name, len(p))
	}
	e.Source = string(secs[0])
	e.Report = secs[1]
	e.State = secs[2]
	return e, nil
}

// Package store is the persistent, content-addressed verification
// cache: the rendered JSON reports of converged runs and the source
// they were compiled from, written as self-checking blobs keyed by
// verification fingerprint (verify.Fingerprint — the design content
// hash mixed with the report-relevant options).
//
// The layout is one file per entry under a single directory, named
// <key>-<source-key>.scv, so an exact lookup matches on the first
// component and a source-text lookup — the only probe that needs no
// compiled design at all — on the second.  Writes go through a temp
// file and an atomic rename — readers never observe a partial blob —
// and every blob carries a trailing FNV-64a checksum over its whole
// content, so truncation or bit rot degrades to a cache miss rather
// than a wrong answer.  The directory is size-bounded: after each
// write, the oldest entries (by modification time) are removed until
// the configured budget holds.
package store

import (
	"bytes"
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
	blobVersion = 2
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
	Key    uint64 // verify.Fingerprint of (design, options)
	SrcKey uint64 // SourceKey of (source text, options): the pre-compile probe
	Source string // the source text the design was compiled from
	Report []byte // the rendered JSON report, byte-exact
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

func blobName(key, srcKey uint64) string {
	return fmt.Sprintf("%016x-%016x%s", key, srcKey, blobSuffix)
}

// nameParts parses a blob filename back into its two fingerprints.  A
// name of any other shape — a version-1 blob's three-part name among
// them — does not parse, so the probes never read it.
func nameParts(name string) (key, srcKey uint64, ok bool) {
	base, found := strings.CutSuffix(name, blobSuffix)
	if !found {
		return 0, 0, false
	}
	var fps [2]uint64
	parts := strings.Split(base, "-")
	if len(parts) != len(fps) {
		return 0, 0, false
	}
	for i, p := range parts {
		// Every probe parses every name in the directory, so this avoids
		// fmt's scanner.
		v, err := strconv.ParseUint(p, 16, 64)
		if err != nil || len(p) != 16 {
			return 0, 0, false
		}
		fps[i] = v
	}
	return fps[0], fps[1], true
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
		if k, _, ok := nameParts(de.Name()); ok && k == key {
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
		if _, sk, ok := nameParts(de.Name()); ok && sk == srcKey {
			if e, err := s.read(de.Name()); err == nil && e.SrcKey == srcKey && e.Source == src {
				return e, true
			}
		}
	}
	return nil, false
}

// Put writes the entry atomically (temp file, fsync-free rename) and
// then enforces the size budget, evicting oldest-first.  The entry it
// just wrote is exempt from its own eviction pass.  A blob already
// stored byte for byte is left alone: renaming over an existing file
// costs tens of milliseconds on some filesystems, far more than writing
// a new one, and a request path must not pay that to store nothing new.
func (s *Store) Put(e *Entry) error {
	blob := encodeBlob(e)
	name := blobName(e.Key, e.SrcKey)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, err := os.ReadFile(filepath.Join(s.dir, name)); err == nil && bytes.Equal(old, blob) {
		return nil
	}
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

// Blob layout (little-endian, version 2):
//
//	"SCTV" | u32 version | u64 key | u64 srcKey
//	| u32 len(source)  | source bytes
//	| u32 len(report)  | report bytes
//	| u64 FNV-64a over everything above
//
// Version 1 also carried a structural fingerprint and an encoded
// fixed point; its blobs read as misses and age out under GC.
func encodeBlob(e *Entry) []byte {
	n := len(blobMagic) + 4 + 8 + 8 + 4 + len(e.Source) + 4 + len(e.Report) + 8
	b := make([]byte, 0, n)
	b = append(b, blobMagic...)
	b = binary.LittleEndian.AppendUint32(b, blobVersion)
	b = binary.LittleEndian.AppendUint64(b, e.Key)
	b = binary.LittleEndian.AppendUint64(b, e.SrcKey)
	for _, sec := range [][]byte{[]byte(e.Source), e.Report} {
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
	if len(b) < len(blobMagic)+4+8+8+8 || string(b[:len(blobMagic)]) != blobMagic {
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
		Key:    binary.LittleEndian.Uint64(p),
		SrcKey: binary.LittleEndian.Uint64(p[8:]),
	}
	p = p[16:]
	var secs [2][]byte
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
	return e, nil
}

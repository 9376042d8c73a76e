package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scaldtv/internal/verify"
)

func testEntry(key uint64, tag string) *Entry {
	return &Entry{
		Key:    key,
		SrcKey: key ^ 0x5eed, // distinct from Key, deterministic per entry
		Source: "design " + tag,
		Report: []byte(`{"tag":"` + tag + `"}`),
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry(0x1111, "one")
	if err := st.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(0x1111)
	if !ok {
		t.Fatal("exact lookup missed")
	}
	if got.Key != want.Key || got.SrcKey != want.SrcKey ||
		got.Source != want.Source || !bytes.Equal(got.Report, want.Report) {
		t.Errorf("round trip mangled the entry: %+v", got)
	}
	if _, ok := st.Get(0x2222); ok {
		t.Error("lookup of an absent key hit")
	}
	// Source-key lookup: hit requires both the key and the exact text.
	if got, ok := st.GetBySource(want.SrcKey, want.Source); !ok || got.Key != want.Key {
		t.Error("source-key lookup missed a stored entry")
	}
	if _, ok := st.GetBySource(want.SrcKey, "design other"); ok {
		t.Error("source-key lookup hit with mismatched source text")
	}
	if _, ok := st.GetBySource(0x7777, want.Source); ok {
		t.Error("lookup of an absent source key hit")
	}
	// Overwriting the same key is idempotent, not additive.
	if err := st.Put(want); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Errorf("store holds %d entries after re-put, want 1", st.Len())
	}
}

func TestStoreCorruptBlobIsAMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(0x42, "x")
	if err := st.Put(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, blobName(e.Key, e.SrcKey))
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"flipped byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}},
		{"wrong version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(blobMagic)] = 0xee // version field — checksum recomputed below
			body := c[:len(c)-8]
			return binary_le_put(body)
		}},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, c.mut(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get(e.Key); ok {
				t.Error("corrupt blob served as a hit")
			}
			if _, ok := st.GetBySource(e.SrcKey, e.Source); ok {
				t.Error("corrupt blob served as a source-key hit")
			}
		})
	}
}

// binary_le_put re-appends a valid checksum, so the "wrong version" case
// tests the version gate rather than the checksum gate.
func binary_le_put(body []byte) []byte {
	out := append([]byte(nil), body...)
	sum := fnv64(out)
	for i := 0; i < 8; i++ {
		out = append(out, byte(sum>>(8*i)))
	}
	return out
}

func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	// Budget fits three of the ~60-byte test entries.
	st, err := Open(dir, 220)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	var names []string
	for i := 0; i < 5; i++ {
		e := testEntry(uint64(i+1), "gc")
		if err := st.Put(e); err != nil {
			t.Fatal(err)
		}
		name := blobName(e.Key, e.SrcKey)
		names = append(names, name)
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, name), mt, mt); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	// Trigger one more GC pass with pinned mtimes in place.
	last := testEntry(0x99, "gc")
	if err := st.Put(last); err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n >= 6 {
		t.Errorf("GC kept all %d entries over a 220-byte budget", n)
	}
	// The newest write always survives its own GC pass.
	if _, err := os.Stat(filepath.Join(dir, blobName(last.Key, last.SrcKey))); err != nil {
		t.Errorf("the just-written entry was evicted: %v", err)
	}
	// The oldest pinned entry goes first.
	if _, err := os.Stat(filepath.Join(dir, names[0])); err == nil {
		t.Error("oldest entry survived GC while the budget was exceeded")
	}
}

// v1Blob encodes an entry in the version-1 layout, which also carried a
// structural fingerprint and an encoded fixed point, and returns it with
// its three-part file name.
func v1Blob(key, structFP, srcKey uint64, src string, rep, state []byte) (name string, blob []byte) {
	b := append([]byte(nil), blobMagic...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, key)
	b = binary.LittleEndian.AppendUint64(b, structFP)
	b = binary.LittleEndian.AppendUint64(b, srcKey)
	for _, sec := range [][]byte{[]byte(src), rep, state} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sec)))
		b = append(b, sec...)
	}
	name = fmt.Sprintf("%016x-%016x-%016x%s", structFP, key, srcKey, blobSuffix)
	return name, binary.LittleEndian.AppendUint64(b, fnv64(b))
}

// TestStoreV1BlobsAgeOut: a directory written by the version-1 store
// degrades to misses.  Every probe misses without an error, a run writes
// its version-2 entry beside the old blob, and GC still counts the old
// file and evicts it by age.
func TestStoreV1BlobsAgeOut(t *testing.T) {
	opts := verify.Options{Workers: 1}
	d, err := compile(warmV1)
	if err != nil {
		t.Fatal(err)
	}
	key, srcKey := verify.Fingerprint(d, opts), SourceKey(warmV1, opts)
	dir := t.TempDir()
	oldName, old := v1Blob(key, 0xaaaa, srcKey, warmV1, coldReport(t, warmV1, opts), []byte("SCTVSNAP fixed point"))
	oldPath := filepath.Join(dir, oldName)
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(oldPath, hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Error("Get answered from a version-1 blob")
	}
	if _, ok := st.GetBySource(srcKey, warmV1); ok {
		t.Error("GetBySource answered from a version-1 blob")
	}
	if _, ok := st.ServeReportSource(warmV1, opts); ok {
		t.Error("the source probe answered from a version-1 blob")
	}
	if _, ok := st.ServeReport(d, opts); ok {
		t.Error("the design probe answered from a version-1 blob")
	}
	out, err := Verify(context.Background(), st, d, warmV1, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Provenance != Cold {
		t.Errorf("verify over a version-1 store answered %q, want cold", out.Provenance)
	}
	newPath := filepath.Join(dir, blobName(key, srcKey))
	if _, err := os.Stat(newPath); err != nil {
		t.Fatalf("no version-2 entry beside the old blob: %v", err)
	}
	if _, err := os.Stat(oldPath); err != nil {
		t.Fatalf("the run removed the version-1 blob: %v", err)
	}
	if n := st.Len(); n != 2 {
		t.Errorf("store counts %d blobs, want the old and the new", n)
	}

	// A budget that holds the new entry and one more small one, but not
	// the old blob too: the next write evicts the old blob, the oldest.
	info, err := os.Stat(newPath)
	if err != nil {
		t.Fatal(err)
	}
	small := testEntry(0x77, "small")
	tight, err := Open(dir, info.Size()+int64(len(encodeBlob(small))))
	if err != nil {
		t.Fatal(err)
	}
	if err := tight.Put(small); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Errorf("GC kept the version-1 blob over budget (stat: %v)", err)
	}
	if _, err := os.Stat(newPath); err != nil {
		t.Errorf("GC evicted the newer entry instead of the old blob: %v", err)
	}
}

// FuzzStoreBlob feeds arbitrary bytes to the blob reader under a valid
// version-2 name, as written and with its checksum made to match: Get
// and GetBySource either miss or return an entry that encodeBlob
// re-encodes to exactly those bytes, and never panic.
func FuzzStoreBlob(f *testing.F) {
	valid := encodeBlob(testEntry(0x1111, "fuzz"))
	_, v1 := v1Blob(0x1111, 0xaaaa, 0x1111^0x5eed, "design fuzz", []byte(`{"tag":"fuzz"}`), []byte("SCTVSNAP fixed point"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(valid)
	f.Add(v1)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The name's keys come from the header, where a well-formed blob
		// keeps them, so a valid input can hit.
		key, srcKey := uint64(0x1111), uint64(0x2222)
		if len(data) >= len(blobMagic)+4+16 {
			key = binary.LittleEndian.Uint64(data[len(blobMagic)+4:])
			srcKey = binary.LittleEndian.Uint64(data[len(blobMagic)+12:])
		}
		inputs := [][]byte{data}
		if len(data) >= 8 {
			inputs = append(inputs, binary_le_put(data[:len(data)-8]))
		}
		for _, blob := range inputs {
			st, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(st.Dir(), blobName(key, srcKey)), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			src := ""
			if e, ok := st.Get(key); ok {
				if got := encodeBlob(e); !bytes.Equal(got, blob) {
					t.Fatalf("Get accepted a blob that re-encodes differently\n got %x\nwant %x", got, blob)
				}
				src = e.Source
			}
			if e, ok := st.GetBySource(srcKey, src); ok {
				if got := encodeBlob(e); !bytes.Equal(got, blob) {
					t.Fatalf("GetBySource accepted a blob that re-encodes differently\n got %x\nwant %x", got, blob)
				}
			}
		}
	})
}

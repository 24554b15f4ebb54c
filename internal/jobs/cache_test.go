package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeID returns a syntactically valid job ID (sha256 hex) that encodes b.
func fakeID(b byte) string {
	return strings.Repeat(string([]byte{'a' + b%6, '0' + b%10}), 32)
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := fakeID(0), fakeID(1), fakeID(2)
	for _, id := range []string{a, b} {
		if err := c.Results.Put(id, []byte(id[:8])); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes the LRU victim.
	if _, ok := c.Results.Get(a); !ok {
		t.Fatal("a missing before eviction")
	}
	if err := c.Results.Put(d, []byte("d")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Results.Get(b); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Results.Get(a); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Results.Get(d); !ok {
		t.Fatal("d should be present")
	}
	st := c.Stats()
	if st.Entries != 2 || st.MaxEntries != 2 {
		t.Fatalf("entries = %d/%d, want 2/2", st.Entries, st.MaxEntries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}
}

func TestCachePutOverwriteKeepsOneEntry(t *testing.T) {
	c, err := NewCache(4, "")
	if err != nil {
		t.Fatal(err)
	}
	id := fakeID(3)
	if err := c.Results.Put(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Results.Put(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Results.Get(id)
	if !ok || string(got) != "v2" {
		t.Fatalf("Get = %q, %v; want v2", got, ok)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	id := fakeID(4)
	want := []byte(`{"answer":42}`)

	c1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Results.Put(id, want); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, id+".json")); err != nil {
		t.Fatalf("persisted file: %v", err)
	} else if !bytes.Equal(data, want) {
		t.Fatalf("disk bytes = %q, want %q", data, want)
	}

	// A fresh cache over the same directory — the restart case — serves the
	// result from disk and promotes it into memory.
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Results.Get(id)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("disk Get = %q, %v; want %q", got, ok, want)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("diskHits/hits = %d/%d, want 1/0", st.DiskHits, st.Hits)
	}
	// Promoted: the second Get is a memory hit.
	if _, ok := c2.Results.Get(id); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("hits after promotion = %d, want 1", st.Hits)
	}
}

func TestCacheDiskSurvivesEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fakeID(5), fakeID(6)
	if err := c.Results.Put(a, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Results.Put(b, []byte("b")); err != nil { // evicts a from memory
		t.Fatal(err)
	}
	got, ok := c.Results.Get(a)
	if !ok || string(got) != "a" {
		t.Fatalf("evicted entry not revived from disk: %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Evictions < 1 || st.DiskHits != 1 {
		t.Fatalf("evictions/diskHits = %d/%d, want ≥1/1", st.Evictions, st.DiskHits)
	}
}

func TestCacheRejectsBadIDs(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	// A non-hash ID must never become a disk path (path traversal guard).
	if err := c.Results.Put("../escape", []byte("x")); err == nil {
		t.Fatal("Put accepted a non-hash ID with a cache dir")
	}
	if _, ok := c.Results.Get("../escape"); ok {
		t.Fatal("Get found a non-hash ID")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

func TestCacheMemoryOnlyMiss(t *testing.T) {
	c, err := NewCache(0, "") // 0 → default capacity
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Results.Get(fakeID(7)); ok {
		t.Fatal("empty cache returned a hit")
	}
	st := c.Stats()
	if st.MaxEntries != 128 {
		t.Fatalf("default maxEntries = %d, want 128", st.MaxEntries)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

package jobs

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Entries is the number of results currently held in memory.
	Entries int `json:"entries"`
	// MaxEntries is the in-memory LRU capacity.
	MaxEntries int `json:"maxEntries"`
	// Hits counts Gets served from memory, DiskHits those revived from the
	// cache directory after an LRU eviction or a restart.
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"diskHits"`
	// Misses counts Gets that found nothing anywhere.
	Misses int64 `json:"misses"`
	// Evictions counts in-memory LRU evictions (the disk copy survives).
	Evictions int64 `json:"evictions"`
	// Dir is the persistence directory ("" = memory only).
	Dir string `json:"dir,omitempty"`
}

// Cache is the service's durable record store. It keeps three record
// classes, each a Records value with one Put/Get/Delete/List path over the
// same atomic-file layer, all keyed by a job or campaign ID (the SHA-256 of
// a canonical spec):
//
//   - Results (<id>.json): the content-addressed result store, job ID →
//     result bytes. In memory it is a bounded LRU; with a cache dir every
//     result is also on disk, so results survive both LRU eviction and
//     process restarts, and a repeated spec is always served
//     byte-identically. Only this class is counted in CacheStats.
//   - Checkpoints (<id>.ckpt.json): mutable progress records for
//     non-terminating work (campaign state, internal/campaign), one per
//     campaign, overwritten in place. They are exempt from the LRU:
//     evicting one would silently rewind a restart to an older snapshot
//     when the disk copy is absent (memory-only caches).
//   - JobRecords (<id>.job.json): the scheduler's write-ahead journal of
//     every job's spec, tenant, and lifecycle (journal.go). Like
//     checkpoints they are mutable and LRU-exempt; the scheduler deletes
//     them when it prunes old terminal jobs.
type Cache struct {
	mu  sync.Mutex // guards the counters and every class's memory
	max int
	dir string

	hits, diskHits, misses, evictions int64

	// Results, Checkpoints and JobRecords are the record classes, set by
	// NewCache.
	Results, Checkpoints, JobRecords *Records
}

// Records is one record class of a Cache: records keyed by ID, held in
// memory and, with a cache dir, persisted as <id><suffix> through an
// atomic temp+rename write. A reader never sees a torn record, so the
// newest complete record survives a SIGKILL. Stored bytes are shared, not
// copied: a caller must not modify a slice it passed to Put or got from
// Get. The Checkpoints class is the campaign.Checkpointer of the server.
type Records struct {
	c      *Cache
	noun   string // names the class in errors
	suffix string
	// lru bounds the class by the cache's capacity and counts its hits,
	// disk hits, misses and evictions in CacheStats.
	lru   bool
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	id   string
	data []byte
}

// NewCache builds a cache holding up to maxEntries results in memory
// (≤ 0 means 128). A non-empty dir enables disk persistence; it is
// created if missing.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 128
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: cache dir: %w", err)
		}
	}
	c := &Cache{max: maxEntries, dir: dir}
	c.Results = c.class("result", ".json", true)
	c.Checkpoints = c.class("checkpoint", ".ckpt.json", false)
	c.JobRecords = c.class("job record", ".job.json", false)
	return c, nil
}

func (c *Cache) class(noun, suffix string, lru bool) *Records {
	return &Records{c: c, noun: noun, suffix: suffix, lru: lru, ll: list.New(), items: make(map[string]*list.Element)}
}

var cacheIDPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

func (r *Records) path(id string) string { return filepath.Join(r.c.dir, id+r.suffix) }

// count bumps one of the cache's counters for the LRU class. Callers hold
// c.mu.
func (r *Records) count(n *int64) {
	if r.lru {
		*n++
	}
}

// Get returns the record for id, checking memory first and then the cache
// directory (a disk read is promoted back into memory).
func (r *Records) Get(id string) ([]byte, bool) {
	c := r.c
	c.mu.Lock()
	if el, ok := r.items[id]; ok {
		r.ll.MoveToFront(el)
		r.count(&c.hits)
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()

	var data []byte
	found := c.dir != "" && cacheIDPattern.MatchString(id)
	if found {
		var err error
		data, err = os.ReadFile(r.path(id))
		found = err == nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !found {
		r.count(&c.misses)
		return nil, false
	}
	r.count(&c.diskHits)
	r.insertLocked(id, data)
	return data, true
}

// Put stores (or overwrites) the record for id, persisting it first when a
// cache dir is configured. The LRU class then evicts its least recently
// used records from memory beyond capacity; their disk copies stay.
func (r *Records) Put(id string, data []byte) error {
	if !cacheIDPattern.MatchString(id) {
		return fmt.Errorf("jobs: %s id %q is not a sha256 hex digest", r.noun, id)
	}
	if r.c.dir != "" {
		if err := writeFileAtomic(r.path(id), data); err != nil {
			return fmt.Errorf("jobs: %s persist: %w", r.noun, err)
		}
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	r.insertLocked(id, data)
	return nil
}

func (r *Records) insertLocked(id string, data []byte) {
	if el, ok := r.items[id]; ok {
		el.Value.(*cacheEntry).data = data
		r.ll.MoveToFront(el)
		return
	}
	r.items[id] = r.ll.PushFront(&cacheEntry{id: id, data: data})
	for r.lru && r.ll.Len() > r.c.max {
		last := r.ll.Back()
		r.ll.Remove(last)
		delete(r.items, last.Value.(*cacheEntry).id)
		r.c.evictions++
	}
}

// Delete forgets the record for id, in memory and on disk. The scheduler
// deletes a pruned job's journal record; its result stays cached.
func (r *Records) Delete(id string) {
	r.c.mu.Lock()
	if el, ok := r.items[id]; ok {
		r.ll.Remove(el)
		delete(r.items, id)
	}
	r.c.mu.Unlock()
	if r.c.dir != "" && cacheIDPattern.MatchString(id) {
		_ = os.Remove(r.path(id))
	}
}

// List returns the IDs holding a record of this class, sorted — memory and
// (when persistent) the cache directory combined. A restarted server
// iterates it to replay the journal and resume checkpointed campaigns.
func (r *Records) List() []string {
	seen := make(map[string]struct{})
	r.c.mu.Lock()
	for id := range r.items {
		seen[id] = struct{}{}
	}
	r.c.mu.Unlock()
	if r.c.dir != "" {
		if matches, err := filepath.Glob(filepath.Join(r.c.dir, "*"+r.suffix)); err == nil {
			for _, path := range matches {
				id := strings.TrimSuffix(filepath.Base(path), r.suffix)
				if cacheIDPattern.MatchString(id) {
					seen[id] = struct{}{}
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.Results.ll.Len(),
		MaxEntries: c.max,
		Hits:       c.hits,
		DiskHits:   c.diskHits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Dir:        c.dir,
	}
}

// writeFileAtomic writes data to a temp file in path's directory and
// renames it into place, so readers never observe a partial result.
func writeFileAtomic(path string, data []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

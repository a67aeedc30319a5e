package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// resultsDirName is the subdirectory of the store holding result blobs.
const resultsDirName = "results"

// blobMagic heads every blob file; a file without it is not ours and is
// never trusted (or deleted) by the store.
var blobMagic = [4]byte{'R', 'B', 'L', '1'}

// blobHeader is magic(4) + crc32c(4) + length(4).
const blobHeader = 12

// blobKeyPattern matches the hex keys the service produces; only matching
// files are indexed, so stray files in a blob tree are ignored rather than
// misread.
var blobKeyPattern = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

// blobInfo is the in-memory index entry of one on-disk blob.
type blobInfo struct {
	size  int64 // file size including header
	mtime time.Time
}

// encodeBlob frames a payload with the shared CRC32-C checksum.
func encodeBlob(payload []byte) []byte {
	buf := make([]byte, blobHeader+len(payload))
	copy(buf[0:4], blobMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	copy(buf[blobHeader:], payload)
	return buf
}

// decodeBlob verifies the frame and returns the payload.
func decodeBlob(buf []byte) ([]byte, error) {
	if len(buf) < blobHeader {
		return nil, fmt.Errorf("store: blob truncated: %d bytes", len(buf))
	}
	if [4]byte(buf[0:4]) != blobMagic {
		return nil, fmt.Errorf("store: blob magic mismatch")
	}
	sum := binary.LittleEndian.Uint32(buf[4:8])
	length := binary.LittleEndian.Uint32(buf[8:12])
	if int(length) != len(buf)-blobHeader {
		return nil, fmt.Errorf("store: blob length %d, have %d payload bytes", length, len(buf)-blobHeader)
	}
	payload := buf[blobHeader:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("store: blob checksum mismatch")
	}
	return payload, nil
}

// namespace is one content-addressed tree of framed blobs; the results
// and surfaces trees are its two instances (DESIGN.md §10). Files are
// sharded by the first two key characters, keeping directory fan-out
// bounded, and carry the blob frame, so a read verifies integrity before
// any decoder runs. The index sizes the tree and orders its keys by age;
// scan builds it at Open, put and drop keep it.
type namespace struct {
	kind string // "result" or "surface", for errors and logs
	dir  string
	log  *slog.Logger
	bad  atomic.Int64 // quarantined checksum failures

	mu    sync.Mutex
	index map[string]blobInfo
	bytes int64
}

func (ns *namespace) path(key string) string {
	return filepath.Join(ns.dir, key[:2], key)
}

// setLocked indexes key with info, replacing any earlier entry.
func (ns *namespace) setLocked(key string, info blobInfo) {
	ns.bytes += info.size - ns.index[key].size
	ns.index[key] = info
}

// put frames payload and writes it under key through a temp file and a
// rename, so readers (and crash recovery) only ever see whole, checksummed
// files; durable fsyncs file and directory. Re-putting a key replaces the
// blob and refreshes its mtime.
func (ns *namespace) put(key string, payload []byte, durable bool) error {
	if !blobKeyPattern.MatchString(key) {
		return fmt.Errorf("store: invalid %s key %q", ns.kind, key)
	}
	if err := os.MkdirAll(filepath.Join(ns.dir, key[:2]), 0o755); err != nil {
		return fmt.Errorf("store: %s shard dir: %w", ns.kind, err)
	}
	framed := encodeBlob(payload)
	if err := writeFileAtomic(ns.path(key), framed, 0o644, durable); err != nil {
		return err
	}
	ns.mu.Lock()
	ns.setLocked(key, blobInfo{size: int64(len(framed)), mtime: time.Now()})
	ns.mu.Unlock()
	return nil
}

// get reads and verifies the blob under key by its path, whether or not
// the index holds the key. A missing file is a miss; a corrupt one is
// quarantined (deleted, dropped from the index and counted) and is a miss
// too, so the caller recomputes.
func (ns *namespace) get(key string) ([]byte, bool) {
	if !blobKeyPattern.MatchString(key) {
		return nil, false
	}
	buf, err := os.ReadFile(ns.path(key))
	if err != nil {
		return nil, false
	}
	payload, err := decodeBlob(buf)
	if err != nil {
		ns.log.Warn("corrupt "+ns.kind+" blob dropped", "key", key, "detail", err.Error())
		ns.drop(key)
		ns.bad.Add(1)
		return nil, false
	}
	return payload, true
}

// has reports whether the index holds key.
func (ns *namespace) has(key string) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	_, ok := ns.index[key]
	return ok
}

// drop removes a blob file and its index entry.
func (ns *namespace) drop(key string) {
	os.Remove(ns.path(key))
	ns.mu.Lock()
	ns.bytes -= ns.index[key].size
	delete(ns.index, key)
	ns.mu.Unlock()
}

// scan indexes the tree's blobs at Open.
func (ns *namespace) scan() error {
	shards, err := os.ReadDir(ns.dir)
	if err != nil {
		return fmt.Errorf("store: read %s dir: %w", ns.kind, err)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(ns.dir, shard.Name()))
		if err != nil {
			return fmt.Errorf("store: read %s shard: %w", ns.kind, err)
		}
		for _, f := range files {
			if f.IsDir() || !blobKeyPattern.MatchString(f.Name()) {
				continue
			}
			if info, err := f.Info(); err == nil {
				ns.setLocked(f.Name(), blobInfo{size: info.Size(), mtime: info.ModTime()})
			}
		}
	}
	return nil
}

// keysLocked returns the indexed keys by mtime, oldest first or newest
// first, ties in key order.
func (ns *namespace) keysLocked(newestFirst bool) []string {
	keys := make([]string, 0, len(ns.index))
	for k := range ns.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ti, tj := ns.index[keys[i]].mtime, ns.index[keys[j]].mtime
		if ti.Equal(tj) {
			return keys[i] < keys[j]
		}
		return ti.Before(tj) != newestFirst
	})
	return keys
}

// PutResult stores a result payload under its cache key. Durability follows
// the store's sync policy — SyncAlways fsyncs file and directory per put,
// the batched and none modes leave it to the page cache (a blob lost to a
// crash just re-runs its job, exactly like the un-flushed WAL records of
// the same window). Each put runs the retention GC.
func (s *Store) PutResult(key string, payload []byte) error {
	if err := s.results.put(key, payload, s.opts.SyncMode == SyncAlways); err != nil {
		return err
	}
	_, err := s.GC()
	return err
}

// GetResult reads and checksum-verifies one result. A missing key returns
// (nil, false); a corrupt file is quarantined and reported as a miss. The
// index answers a key it does not hold without touching the disk — a cold
// submit's lookup is a map probe — so a blob placed in the results tree
// behind the store's back is not served until the store is reopened.
func (s *Store) GetResult(key string) ([]byte, bool) {
	if !s.results.has(key) {
		return nil, false
	}
	return s.results.get(key)
}

// GC enforces the retention policy on the result store: blobs older than
// ResultMaxAge go first, then the oldest blobs until total size fits under
// ResultMaxBytes. Returns how many blobs were removed. Zero bounds disable
// the corresponding rule.
func (s *Store) GC() (int, error) {
	ns := &s.results
	maxAge, maxBytes := s.opts.ResultMaxAge, s.opts.ResultMaxBytes
	var victims []string
	ns.mu.Lock()
	over := ns.bytes - maxBytes
	if maxBytes <= 0 {
		over = 0
	}
	if maxAge > 0 || over > 0 {
		// Oldest first, the blobs past the age bound are a prefix; the
		// walk goes on while the rest is over the size bound.
		cutoff := time.Now().Add(-maxAge)
		for _, k := range ns.keysLocked(false) {
			info := ns.index[k]
			if over <= 0 && !(maxAge > 0 && info.mtime.Before(cutoff)) {
				break
			}
			victims = append(victims, k)
			over -= info.size
		}
	}
	ns.mu.Unlock()

	for _, k := range victims {
		ns.drop(k)
	}
	if len(victims) > 0 {
		s.evictions.Add(int64(len(victims)))
		s.opts.Logger.Info("result store gc", "removed", len(victims))
	}
	return len(victims), nil
}

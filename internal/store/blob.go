package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"
)

// resultsDirName is the subdirectory of the store holding result blobs.
const resultsDirName = "results"

// blobMagic heads every result file; a file without it is not ours and is
// never trusted (or deleted) by the store.
var blobMagic = [4]byte{'R', 'B', 'L', '1'}

// blobHeader is magic(4) + crc32c(4) + length(4).
const blobHeader = 12

// blobKeyPattern matches the hex cache keys the service produces; only
// matching files are indexed, so stray files in the results tree are
// ignored rather than misread.
var blobKeyPattern = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

// blobInfo is the in-memory index entry of one on-disk result.
type blobInfo struct {
	size  int64 // file size including header
	mtime time.Time
}

// blobPath shards blobs by the first two key characters, keeping directory
// fan-out bounded on large stores.
func (s *Store) blobPath(key string) string {
	return filepath.Join(s.resultsDir, key[:2], key)
}

// encodeBlob frames a result payload with the shared CRC32-C checksum.
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

// PutResult stores a result payload under its cache key: the framed blob
// is written to a temp file and renamed into place, so readers (and crash
// recovery) only ever see whole, checksummed files. Durability follows the
// store's sync policy — SyncAlways fsyncs file and directory per put, the
// batched and none modes leave it to the page cache (a blob lost to a
// crash just re-runs its job, exactly like the un-flushed WAL records of
// the same window). Re-putting an existing key refreshes its mtime for
// retention purposes.
func (s *Store) PutResult(key string, payload []byte) error {
	if !blobKeyPattern.MatchString(key) {
		return fmt.Errorf("store: invalid result key %q", key)
	}
	dir := filepath.Join(s.resultsDir, key[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: result shard dir: %w", err)
	}
	framed := encodeBlob(payload)
	if err := writeFileAtomic(s.blobPath(key), framed, 0o644, s.opts.SyncMode == SyncAlways); err != nil {
		return err
	}
	s.bmu.Lock()
	if old, ok := s.blobs[key]; ok {
		s.blobBytes -= old.size
	}
	s.blobs[key] = blobInfo{size: int64(len(framed)), mtime: time.Now()}
	s.blobBytes += int64(len(framed))
	s.bmu.Unlock()
	_, err := s.GC()
	return err
}

// GetResult reads and checksum-verifies one result. A missing key returns
// (nil, false); a corrupt file is quarantined (deleted and counted) and
// reported as a miss, so the caller transparently recomputes. The index
// answers a key it does not hold without touching the disk — a cold
// submit's lookup is a map probe — so a blob placed in the results tree
// behind the store's back is not served until the store is reopened.
func (s *Store) GetResult(key string) ([]byte, bool) {
	if !blobKeyPattern.MatchString(key) {
		return nil, false
	}
	s.bmu.Lock()
	_, indexed := s.blobs[key]
	s.bmu.Unlock()
	if !indexed {
		return nil, false
	}
	buf, err := os.ReadFile(s.blobPath(key))
	if err != nil {
		return nil, false
	}
	payload, err := decodeBlob(buf)
	if err != nil {
		s.opts.Logger.Warn("corrupt result blob dropped", "key", key, "detail", err.Error())
		s.dropBlob(key)
		s.bmu.Lock()
		s.badBlobs++
		s.bmu.Unlock()
		return nil, false
	}
	return payload, true
}

// dropBlob removes a blob file and its index entry.
func (s *Store) dropBlob(key string) {
	os.Remove(s.blobPath(key))
	s.bmu.Lock()
	if info, ok := s.blobs[key]; ok {
		s.blobBytes -= info.size
		delete(s.blobs, key)
	}
	s.bmu.Unlock()
}

// scanBlobs builds the in-memory blob index from the results tree at Open.
func (s *Store) scanBlobs() error {
	shards, err := os.ReadDir(s.resultsDir)
	if err != nil {
		return fmt.Errorf("store: read results dir: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.resultsDir, shard.Name()))
		if err != nil {
			return fmt.Errorf("store: read result shard: %w", err)
		}
		for _, f := range files {
			if f.IsDir() || !blobKeyPattern.MatchString(f.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			s.blobs[f.Name()] = blobInfo{size: info.Size(), mtime: info.ModTime()}
			s.blobBytes += info.Size()
		}
	}
	return nil
}

// GC enforces the retention policy on the result store: blobs older than
// ResultMaxAge go first, then the oldest blobs until total size fits under
// ResultMaxBytes. Returns how many blobs were removed. Zero bounds disable
// the corresponding rule.
func (s *Store) GC() (int, error) {
	s.bmu.Lock()
	type aged struct {
		key  string
		info blobInfo
	}
	var victims []string
	if s.opts.ResultMaxAge > 0 {
		cutoff := time.Now().Add(-s.opts.ResultMaxAge)
		for k, info := range s.blobs {
			if info.mtime.Before(cutoff) {
				victims = append(victims, k)
			}
		}
	}
	if s.opts.ResultMaxBytes > 0 && s.blobBytes > s.opts.ResultMaxBytes {
		all := make([]aged, 0, len(s.blobs))
		for k, info := range s.blobs {
			all = append(all, aged{k, info})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].info.mtime.Equal(all[j].info.mtime) {
				return all[i].key < all[j].key
			}
			return all[i].info.mtime.Before(all[j].info.mtime)
		})
		over := s.blobBytes - s.opts.ResultMaxBytes
		seen := make(map[string]bool, len(victims))
		for _, v := range victims {
			seen[v] = true
			over -= s.blobs[v].size
		}
		for _, a := range all {
			if over <= 0 {
				break
			}
			if !seen[a.key] {
				victims = append(victims, a.key)
				over -= a.info.size
			}
		}
	}
	s.bmu.Unlock()

	for _, k := range victims {
		s.dropBlob(k)
	}
	if len(victims) > 0 {
		s.bmu.Lock()
		s.resultEvictions += int64(len(victims))
		s.bmu.Unlock()
		s.opts.Logger.Info("result store gc", "removed", len(victims))
	}
	return len(victims), nil
}

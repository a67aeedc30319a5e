package store

// surfacesDirName is the subdirectory of the store holding response-
// surface artifacts (DESIGN.md §15): the second namespace beside the
// result blobs. Surfaces are content-addressed by spec hash, wear their
// own "SRF1" inner framing (internal/surface) inside the blob frame, and
// are exempt from the result store's retention GC — a surface is hours of
// sweep work, not a cache entry, and is only replaced by an explicit
// re-put.
const surfacesDirName = "surfaces"

// PutSurface stores an encoded surface artifact under its spec key,
// atomically and fsynced under SyncAlways like result blobs. Re-putting a
// key replaces the artifact.
func (s *Store) PutSurface(key string, payload []byte) error {
	return s.surfaces.put(key, payload, s.opts.SyncMode == SyncAlways)
}

// GetSurface reads and checksum-verifies one surface artifact by path,
// with no index gate: a store opened on the same directory before the
// artifact was put still reads it. A missing key returns (nil, false); a
// corrupt file is quarantined and reported as a miss so the caller
// rebuilds the surface from its spec.
func (s *Store) GetSurface(key string) ([]byte, bool) { return s.surfaces.get(key) }

// DropSurface deletes the artifact under key: surfaces are exempt from GC,
// so one its reader refuses for good (built from stale results) stays
// until dropped.
func (s *Store) DropSurface(key string) {
	if blobKeyPattern.MatchString(key) {
		s.surfaces.drop(key)
	}
}

// SurfaceKeys returns the stored surface keys newest-first (by mtime) —
// the reload order for a restarting serving tier.
func (s *Store) SurfaceKeys() []string {
	s.surfaces.mu.Lock()
	defer s.surfaces.mu.Unlock()
	return s.surfaces.keysLocked(true)
}

package store

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"
)

func TestSurfacePutGetRoundtrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	payload := []byte("SRF1-inner-frame-stands-in-here")
	if err := s.PutSurface(key(1), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetSurface(key(1))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get = (%q, %v), want the original payload", got, ok)
	}
	if _, ok := s.GetSurface(key(2)); ok {
		t.Error("unknown surface key must miss")
	}
	// Re-put replaces in place.
	if err := s.PutSurface(key(1), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.GetSurface(key(1))
	if string(got) != "v2" {
		t.Errorf("re-put did not replace: %q", got)
	}
	st := s.Snapshot()
	if st.Surfaces != 1 || st.SurfaceBytes == 0 {
		t.Errorf("snapshot = %d surfaces / %d bytes, want 1 / >0", st.Surfaces, st.SurfaceBytes)
	}
	for _, bad := range []string{"", "short", "../../etc/passwd"} {
		if err := s.PutSurface(bad, payload); err == nil {
			t.Errorf("PutSurface(%q) accepted an invalid key", bad)
		}
	}
}

// TestSurfacesSurviveReopen: the serving tier reloads its inventory from
// the scan at Open, newest-first.
func TestSurfacesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	base := time.Now().Add(-time.Hour)
	for i := 1; i <= 3; i++ {
		if err := s.PutSurface(key(i), []byte(fmt.Sprintf("surface-%d", i))); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.surfaces.path(key(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	r := openTest(t, dir, Options{})
	keys := r.SurfaceKeys()
	if len(keys) != 3 {
		t.Fatalf("indexed %d surfaces, want 3", len(keys))
	}
	if keys[0] != key(3) || keys[2] != key(1) {
		t.Errorf("order not newest-first: %v", keys)
	}
	for i := 1; i <= 3; i++ {
		got, ok := r.GetSurface(key(i))
		if !ok || string(got) != fmt.Sprintf("surface-%d", i) {
			t.Errorf("surface %d after reopen: (%q, %v)", i, got, ok)
		}
	}
}

// TestSurfaceCorruptionQuarantined: a bit-flipped artifact must read as
// a miss, be deleted, and bump the quarantine counter — the caller then
// rebuilds from the spec.
func TestSurfaceCorruptionQuarantined(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if err := s.PutSurface(key(1), []byte("surface-payload")); err != nil {
		t.Fatal(err)
	}
	path := s.surfaces.path(key(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSurface(key(1)); ok {
		t.Fatal("corrupt surface served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt surface not quarantined from disk")
	}
	st := s.Snapshot()
	if st.BadBlobs == 0 {
		t.Error("quarantine counter never moved")
	}
	if st.Surfaces != 0 {
		t.Errorf("index still holds %d surfaces", st.Surfaces)
	}
}

// TestSurfacesExemptFromGC: result retention must never evict a surface
// — hours of sweep work are not a cache entry.
func TestSurfacesExemptFromGC(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{ResultMaxBytes: 200, ResultMaxAge: time.Hour})
	big := bytes.Repeat([]byte("s"), 400)
	if err := s.PutSurface(key(1), big); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(s.surfaces.path(key(1)), stale, stale); err != nil {
		t.Fatal(err)
	}
	// Drive GC through the result path.
	if err := s.PutResult(key(2), bytes.Repeat([]byte("r"), 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetSurface(key(1)); !ok {
		t.Error("GC evicted a surface")
	}
}

// TestWALRecordsClass: the admission class must survive the WAL round
// trip and compaction snapshots.
func TestWALRecordsClass(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	js := JobState{
		ID: "j-000001", Seq: 1, Request: []byte(`{"type":"ode","class":"batch"}`),
		Key: key(1), SubmittedAt: time.Now().UTC(), Class: "batch",
	}
	if err := s.AppendSubmitted(js); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openTest(t, dir, Options{})
	pend := r.PendingJobs()
	if len(pend) != 1 {
		t.Fatalf("recovered %d pending jobs, want 1", len(pend))
	}
	if pend[0].Class != "batch" {
		t.Errorf("class lost across replay+compaction: %q", pend[0].Class)
	}
}

// TestSurfaceReadByPath pins the namespaces' two read rules: a Store
// opened on the directory before another one puts a surface reads that
// surface through GetSurface, which has no index gate, while GetResult
// answers from its own index and misses a result it never indexed. A
// serving tier reading through a second Store relies on the first rule.
func TestSurfaceReadByPath(t *testing.T) {
	dir := t.TempDir()
	writer := openTest(t, dir, Options{})
	reader := openTest(t, dir, Options{SyncMode: SyncNone})
	if err := writer.PutSurface(key(1), []byte("surface")); err != nil {
		t.Fatal(err)
	}
	if err := writer.PutResult(key(2), []byte("result")); err != nil {
		t.Fatal(err)
	}
	if got, ok := reader.GetSurface(key(1)); !ok || string(got) != "surface" {
		t.Fatalf("second store GetSurface = (%q, %v), want the surface", got, ok)
	}
	if got, ok := reader.GetResult(key(2)); ok {
		t.Fatalf("second store served an unindexed result %q", got)
	}
}

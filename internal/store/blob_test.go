package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func key(i int) string { return fmt.Sprintf("%064d", i) }

func TestPutGetRoundtrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	payload := []byte(`{"r0":2.1661,"final_i":0.0001}`)
	if err := s.PutResult(key(1), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetResult(key(1))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get = (%q, %v), want the original payload", got, ok)
	}
	if _, ok := s.GetResult(key(2)); ok {
		t.Error("unknown key must miss")
	}
	// Re-put refreshes in place.
	if err := s.PutResult(key(1), payload); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot(); st.Results != 1 {
		t.Errorf("results = %d, want 1 after re-put", st.Results)
	}
}

func TestPutRejectsBadKey(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	for _, bad := range []string{"", "short", "../../etc/passwd", "ZZ" + key(1)[2:]} {
		if err := s.PutResult(bad, []byte("x")); err == nil {
			t.Errorf("PutResult(%q) accepted an invalid key", bad)
		}
	}
}

// TestResultsSurviveReopen: blobs written before a crash are indexed on
// reopen and read back verified.
func TestResultsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		if err := s.PutResult(key(i), []byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	r := openTest(t, dir, Options{})
	if got := r.Snapshot().Results; got != 3 {
		t.Fatalf("indexed %d blobs, want 3", got)
	}
	for i := 1; i <= 3; i++ {
		got, ok := r.GetResult(key(i))
		if !ok || string(got) != fmt.Sprintf(`{"n":%d}`, i) {
			t.Errorf("blob %d after reopen: (%q, %v)", i, got, ok)
		}
	}
}

// TestGCSizeBound fills past ResultMaxBytes and expects the oldest blobs
// to be removed until the store fits.
func TestGCSizeBound(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100) // 112 bytes framed
	s := openTest(t, dir, Options{ResultMaxBytes: 500})
	base := time.Now().Add(-time.Hour)
	for i := 1; i <= 4; i++ {
		if err := s.PutResult(key(i), payload); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.results.path(key(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
		s.results.mu.Lock()
		s.results.index[key(i)] = blobInfo{size: s.results.index[key(i)].size, mtime: mt}
		s.results.mu.Unlock()
	}
	// 5th put crosses 500 bytes: the oldest (key 1) must go.
	if err := s.PutResult(key(5), payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetResult(key(1)); ok {
		t.Error("oldest blob survived the size bound")
	}
	if _, ok := s.GetResult(key(5)); !ok {
		t.Error("newest blob was evicted")
	}
	st := s.Snapshot()
	if st.ResultBytes > 500 {
		t.Errorf("result bytes = %d, want <= 500", st.ResultBytes)
	}
	if st.ResultEvictions == 0 {
		t.Error("eviction counter never moved")
	}
}

// TestGCAgeBound backdates a blob beyond ResultMaxAge and expects GC to
// remove it while keeping the fresh one.
func TestGCAgeBound(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{ResultMaxAge: time.Hour})
	if err := s.PutResult(key(1), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult(key(2), []byte("new")); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(s.results.path(key(1)), stale, stale); err != nil {
		t.Fatal(err)
	}
	s.results.mu.Lock()
	s.results.index[key(1)] = blobInfo{size: s.results.index[key(1)].size, mtime: stale}
	s.results.mu.Unlock()

	removed, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if _, ok := s.GetResult(key(1)); ok {
		t.Error("stale blob survived the age bound")
	}
	if _, ok := s.GetResult(key(2)); !ok {
		t.Error("fresh blob was removed")
	}
}

// TestGCAtOpen verifies retention applies to pre-existing blobs during
// Open, not only on the Put path.
func TestGCAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	payload := bytes.Repeat([]byte("y"), 200)
	for i := 1; i <= 5; i++ {
		if err := s.PutResult(key(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	r := openTest(t, dir, Options{ResultMaxBytes: 450})
	if st := r.Snapshot(); st.ResultBytes > 450 || st.Results >= 5 {
		t.Errorf("open-time GC did not enforce the bound: %+v", st)
	}
}

// TestGetResultMissSkipsDisk pins that the index answers misses. A
// corrupt file planted under an unknown key is neither read nor
// quarantined by a lookup (a read would delete it and count a bad blob),
// and a valid blob planted behind the open store is served only after a
// reopen indexes it.
func TestGetResultMissSkipsDisk(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.PutResult(key(1), []byte("one")); err != nil {
		t.Fatal(err)
	}
	path := s.results.path(key(2))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not a blob frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if payload, ok := s.GetResult(key(2)); ok || payload != nil {
		t.Fatalf("unknown key = (%q, %v), want a miss", payload, ok)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("a miss touched the planted file: %v", err)
	}
	if st := s.Snapshot(); st.BadBlobs != 0 {
		t.Fatalf("bad blobs = %d after a miss, want 0", st.BadBlobs)
	}

	framed, err := os.ReadFile(s.results.path(key(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, framed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetResult(key(2)); ok {
		t.Fatal("a blob planted behind the open store was served")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{})
	if got, ok := r.GetResult(key(2)); !ok || string(got) != "one" {
		t.Fatalf("after reopen: (%q, %v), want the planted blob", got, ok)
	}
}

// TestScanIgnoresStrayFiles drops a non-blob file into the results tree;
// the index must skip it and never delete it.
func TestScanIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.PutResult(key(1), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, resultsDirName, "00", "README.txt")
	if err := os.WriteFile(stray, []byte("not a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openTest(t, dir, Options{ResultMaxBytes: 1}) // GC everything it indexes
	if _, err := os.Stat(stray); err != nil {
		t.Errorf("stray file touched by the store: %v", err)
	}
	_ = r
}

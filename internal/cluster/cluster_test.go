package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestGrantExtendRelease(t *testing.T) {
	clk := newFakeClock()
	tb := New(10*time.Second, 30*time.Second, clk.Now)

	l := tb.Grant("j-1", "w-a", 1)
	if l.JobID != "j-1" || l.Worker != "w-a" || l.Attempt != 1 {
		t.Fatalf("grant = %+v", l)
	}
	if !strings.HasPrefix(l.Token, "j-1.a1.") || len(l.Token) != len("j-1.a1.")+16 {
		t.Errorf("token %q: want j-1.a1.<16 hex chars>", l.Token)
	}
	if want := clk.Now().Add(10 * time.Second); !l.Deadline.Equal(want) {
		t.Errorf("deadline = %v, want %v", l.Deadline, want)
	}
	if tb.Active() != 1 {
		t.Errorf("Active = %d, want 1", tb.Active())
	}

	// Extend pushes the deadline out from the current clock.
	clk.Advance(7 * time.Second)
	ext, err := tb.Extend("j-1", l.Token)
	if err != nil {
		t.Fatal(err)
	}
	if want := clk.Now().Add(10 * time.Second); !ext.Deadline.Equal(want) {
		t.Errorf("extended deadline = %v, want %v", ext.Deadline, want)
	}

	// Release pops the lease and credits the worker.
	rel, err := tb.Release("j-1", l.Token)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Worker != "w-a" || tb.Active() != 0 {
		t.Errorf("release = %+v, active %d", rel, tb.Active())
	}
	ws := tb.Workers()
	if len(ws) != 1 || ws[0].JobsCompleted != 1 || ws[0].LeasesHeld != 0 {
		t.Errorf("registry after release = %+v", ws)
	}

	// The released token is dead.
	if _, err := tb.Extend("j-1", l.Token); !errors.Is(err, ErrNotLeased) {
		t.Errorf("extend after release: %v, want ErrNotLeased", err)
	}
}

func TestFencing(t *testing.T) {
	clk := newFakeClock()
	tb := New(10*time.Second, 30*time.Second, clk.Now)

	l1 := tb.Grant("j-1", "w-a", 1)
	l2 := tb.Grant("j-1", "w-b", 2) // re-grant supersedes; l1's token is stale
	if l1.Token == l2.Token {
		t.Fatal("re-grant reused the token")
	}
	if _, err := tb.Extend("j-1", l1.Token); !errors.Is(err, ErrStaleToken) {
		t.Errorf("stale extend: %v, want ErrStaleToken", err)
	}
	if _, err := tb.Release("j-1", l1.Token); !errors.Is(err, ErrStaleToken) {
		t.Errorf("stale release: %v, want ErrStaleToken", err)
	}
	if _, err := tb.Release("j-1", l2.Token); err != nil {
		t.Errorf("current release: %v", err)
	}
	if _, err := tb.Release("j-9", "whatever"); !errors.Is(err, ErrNotLeased) {
		t.Errorf("unknown job: %v, want ErrNotLeased", err)
	}
}

func TestTokensUnique(t *testing.T) {
	tb := New(time.Second, time.Second, nil)
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		l := tb.Grant(fmt.Sprintf("j-%d", i), "w", 1)
		if seen[l.Token] {
			t.Fatalf("duplicate token %q", l.Token)
		}
		seen[l.Token] = true
	}
}

func TestExpired(t *testing.T) {
	clk := newFakeClock()
	tb := New(10*time.Second, 30*time.Second, clk.Now)

	a := tb.Grant("j-a", "w-1", 1)
	clk.Advance(3 * time.Second)
	tb.Grant("j-b", "w-2", 1)

	if got := tb.Expired(); len(got) != 0 {
		t.Fatalf("nothing due yet, Expired = %+v", got)
	}

	// 8s later j-a (deadline t+10) is past due, j-b (t+13) is not.
	clk.Advance(8 * time.Second)
	got := tb.Expired()
	if len(got) != 1 || got[0].JobID != "j-a" {
		t.Fatalf("Expired = %+v, want just j-a", got)
	}
	// Popping invalidated the token: the late worker is fenced out.
	if _, err := tb.Extend("j-a", a.Token); !errors.Is(err, ErrNotLeased) {
		t.Errorf("extend after expiry: %v, want ErrNotLeased", err)
	}
	if tb.Active() != 1 {
		t.Errorf("Active = %d, want 1 (j-b)", tb.Active())
	}

	// Both a re-grant of j-a and j-b expire eventually, oldest deadline first.
	tb.Grant("j-a", "w-3", 2)
	clk.Advance(time.Minute)
	got = tb.Expired()
	if len(got) != 2 || got[0].JobID != "j-b" || got[1].JobID != "j-a" {
		t.Fatalf("Expired = %+v, want j-b (older deadline) then j-a", got)
	}
}

func TestExtendDefersExpiry(t *testing.T) {
	clk := newFakeClock()
	tb := New(10*time.Second, 30*time.Second, clk.Now)
	l := tb.Grant("j-1", "w-a", 1)
	for i := 0; i < 5; i++ {
		clk.Advance(9 * time.Second)
		if got := tb.Expired(); len(got) != 0 {
			t.Fatalf("lease expired despite heartbeats: %+v", got)
		}
		if _, err := tb.Extend("j-1", l.Token); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(11 * time.Second)
	if got := tb.Expired(); len(got) != 1 {
		t.Fatalf("Expired = %+v, want the abandoned lease", got)
	}
}

func TestRequestCancel(t *testing.T) {
	tb := New(10*time.Second, 30*time.Second, nil)
	if tb.RequestCancel("j-1") {
		t.Error("cancel of unleased job reported a lease")
	}
	l := tb.Grant("j-1", "w-a", 1)
	if !tb.RequestCancel("j-1") {
		t.Error("cancel of leased job reported no lease")
	}
	ext, err := tb.Extend("j-1", l.Token)
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Cancel {
		t.Error("heartbeat after RequestCancel does not carry the cancel flag")
	}
}

func TestRegistryLiveness(t *testing.T) {
	clk := newFakeClock()
	tb := New(10*time.Second, 30*time.Second, clk.Now)

	tb.Touch("w-a")
	clk.Advance(20 * time.Second)
	tb.Touch("w-b")
	tb.Grant("j-1", "w-b", 1)

	if n := tb.LiveWorkers(); n != 2 {
		t.Errorf("LiveWorkers = %d, want 2", n)
	}
	// 15s later w-a (last seen 35s ago) is past the 30s window.
	clk.Advance(15 * time.Second)
	if n := tb.LiveWorkers(); n != 1 {
		t.Errorf("LiveWorkers = %d, want 1", n)
	}
	ws := tb.Workers()
	if len(ws) != 2 || ws[0].ID != "w-a" || ws[1].ID != "w-b" {
		t.Fatalf("Workers = %+v, want w-a then w-b", ws)
	}
	if ws[0].Live {
		t.Errorf("w-a = %+v, want lost", ws[0])
	}
	if !ws[1].Live || ws[1].LeasesHeld != 1 {
		t.Errorf("w-b = %+v, want live with one lease held", ws[1])
	}

	tb.Deregister("w-a")
	if ws := tb.Workers(); len(ws) != 1 || ws[0].ID != "w-b" {
		t.Errorf("Workers after deregister = %+v, want just w-b", ws)
	}
	// Deregistering does not drop leases; they expire on schedule instead.
	tb.Deregister("w-b")
	if tb.Active() != 1 {
		t.Errorf("Active after deregister = %d, want the lease to survive", tb.Active())
	}
}

func TestLeased(t *testing.T) {
	tb := New(10*time.Second, 30*time.Second, nil)
	if _, ok := tb.Leased("j-1"); ok {
		t.Error("Leased reported a lease on an empty table")
	}
	tb.Grant("j-1", "w-a", 3)
	l, ok := tb.Leased("j-1")
	if !ok || l.Worker != "w-a" || l.Attempt != 3 {
		t.Errorf("Leased = %+v ok=%v", l, ok)
	}
}

// TestConcurrentAccess hammers the table from many goroutines under -race.
func TestConcurrentAccess(t *testing.T) {
	tb := New(time.Millisecond, time.Second, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := fmt.Sprintf("w-%d", g)
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("j-%d-%d", g, i)
				l := tb.Grant(id, w, 1)
				tb.Extend(id, l.Token)
				if i%3 == 0 {
					tb.Release(id, l.Token)
				}
				tb.Expired()
				tb.Workers()
				tb.LiveWorkers()
			}
		}(g)
	}
	wg.Wait()
}

package cluster

import (
	"testing"
	"time"
)

// TestOldestLeaseAge covers the registry's lease-age column: the
// oldest-lease age tracks grant/extend time, and deregistration drops the
// worker.
func TestOldestLeaseAge(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	tbl := New(10*time.Second, time.Minute, clock)

	tbl.Touch("w-1")
	ws := tbl.Workers()
	if len(ws) != 1 {
		t.Fatalf("Workers = %+v, want one worker", ws)
	}

	// No leases: no age reported.
	if age := ws[0].OldestLeaseAgeMS; age != 0 {
		t.Errorf("lease age with no leases = %g, want 0", age)
	}

	// Grant two leases at different times; the age reflects the older one.
	tbl.Grant("j-1", "w-1", 1)
	now = now.Add(2 * time.Second)
	tbl.Grant("j-2", "w-1", 1)
	now = now.Add(1 * time.Second)
	if age := tbl.Workers()[0].OldestLeaseAgeMS; age != 3000 {
		t.Errorf("oldest lease age = %gms, want 3000", age)
	}

	// Extending the older lease resets its age; the other becomes oldest.
	lease, _ := tbl.Leased("j-1")
	if _, err := tbl.Extend("j-1", lease.Token); err != nil {
		t.Fatal(err)
	}
	if age := tbl.Workers()[0].OldestLeaseAgeMS; age != 1000 {
		t.Errorf("oldest lease age after extend = %gms, want 1000", age)
	}

	// Deregistration forgets the worker.
	tbl.Touch("w-2")
	if ws := tbl.Workers(); len(ws) != 2 {
		t.Fatalf("Workers after a new node's touch = %d entries, want 2", len(ws))
	}
	tbl.Deregister("w-2")
	for _, w := range tbl.Workers() {
		if w.ID == "w-2" {
			t.Errorf("deregistered worker still listed: %+v", w)
		}
	}
}

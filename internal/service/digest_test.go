package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// pinnedDigests holds the sha256 of ExecuteRequest's bytes for fixed
// requests on the built-in scenario, keyed by job type and the type's
// resultVersion. A solver change that moves a result byte without bumping
// that version fails here; a deliberate bump adds the new version's digest
// next to the old one.
var pinnedDigests = []struct {
	name    string
	req     Request
	version int
	digest  string
}{
	{"ode", Request{Type: JobODE, Params: versionODEParams}, 2,
		"d101d6360048b22c959daf3701da14046de94340aad5b1597ff453cdead1d84b"},
	{"abm", Request{Type: JobABM, Params: versionABMParams}, 2,
		"78077fa828f59156808486b0f178abfccbe1e83b5e68bdcacdef9c13217efe68"},
	{"fbsm", Request{Type: JobFBSM, Params: versionFBSMParams}, 3,
		"c41e2874a785048a6cd184214cf8d94fa2dcfdedc58fb3b87fc0d7a9ab5ad68c"},
	{"fbsm+target", Request{Type: JobFBSM, Params: Params{Alpha: 0.01, Eps1: 0.05, Eps2: 0.02,
		Lambda0: 0.05, I0: 0.1, Tf: 20, Points: 500, Seed: 1, C1: 5, C2: 10, EpsMax: 0.6, Grid: 120,
		Target: 0.00005}}, 3,
		"d318048cc46cf8f81318f6608a734d62918d268648fcfac9fb1fdbee4a05355c"},
}

// TestResultDigestsPinned enforces the resultVersion rule: every pinned
// request must still serialize to the bytes recorded for its type's
// current result version. It runs only on amd64, where Go never contracts
// a multiply and an add into one FMA; other architectures may legally
// round differently.
func TestResultDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("result digests are pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sc := builtinScenario(t, svc)
	for _, tc := range pinnedDigests {
		if got := resultVersion(tc.req.Type); got != tc.version {
			t.Errorf("%s: resultVersion is %d, digest pinned at %d", tc.name, got, tc.version)
			continue
		}
		if got := tc.req.Params.WithDefaults(tc.req.Type); got != tc.req.Params {
			t.Fatalf("%s params are not canonical: %+v", tc.name, got)
		}
		raw, err := ExecuteRequest(context.Background(), sc, tc.req, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s: result sha256 %s, pinned %s at result version %d", tc.name, got, tc.digest, tc.version)
		}
	}
}

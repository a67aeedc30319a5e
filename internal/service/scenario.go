package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"

	"rumornet/internal/degreedist"
)

// BuiltinScenario is the name of the calibrated synthetic Digg2009 degree
// distribution registered at service start (the paper's evaluation
// substrate, Section V).
const BuiltinScenario = "digg2009"

// Scenario is a registered degree-distribution a job can run against. The
// distribution is built once at registration and shared read-only by every
// job, which amortizes model construction across requests.
type Scenario struct {
	Name        string  `json:"name"`
	Source      string  `json:"source"` // "builtin", "uploaded", or a CLI's description
	Groups      int     `json:"groups"`
	MinDegree   int     `json:"min_degree"`
	MaxDegree   int     `json:"max_degree"`
	MeanDegree  float64 `json:"mean_degree"`
	Fingerprint string  `json:"fingerprint"` // content address of the table

	dist *degreedist.Dist
}

// Dist returns the scenario's immutable degree distribution.
func (sc *Scenario) Dist() *degreedist.Dist { return sc.dist }

var scenarioName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// registry is the concurrency-safe scenario table. Scenarios are append-
// only: jobs hold *Scenario pointers, so deletion would invalidate queued
// work; operators restart the daemon to reset the table.
type registry struct {
	mu sync.RWMutex
	m  map[string]*Scenario
}

func newRegistry() *registry {
	return &registry{m: make(map[string]*Scenario)}
}

// NewScenario validates a degree table and wraps it, under a name, as the
// scenario ExecuteRequest runs a request against. The registry builds
// every registered scenario with it; rumorsim and rumorctl build their
// one-shot scenario the same way.
func NewScenario(name, source string, dist *degreedist.Dist) (*Scenario, error) {
	if !scenarioName.MatchString(name) {
		return nil, fmt.Errorf("service: invalid scenario name %q (want %s)", name, scenarioName)
	}
	if err := dist.Validate(); err != nil {
		return nil, fmt.Errorf("service: scenario %q: %w", name, err)
	}
	return &Scenario{
		Name:        name,
		Source:      source,
		Groups:      dist.N(),
		MinDegree:   dist.MinDegree(),
		MaxDegree:   dist.MaxDegree(),
		MeanDegree:  dist.MeanDegree(),
		Fingerprint: fingerprintDist(dist),
		dist:        dist,
	}, nil
}

func (r *registry) register(name, source string, dist *degreedist.Dist) (*Scenario, error) {
	sc, err := NewScenario(name, source, dist)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return nil, fmt.Errorf("service: scenario %q already registered: %w", name, errDuplicate)
	}
	r.m[name] = sc
	return sc, nil
}

func (r *registry) get(name string) (*Scenario, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sc, ok := r.m[name]
	return sc, ok
}

func (r *registry) list() []*Scenario {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Scenario, 0, len(r.m))
	for _, sc := range r.m {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// fingerprintDist content-addresses a degree table: SHA-256 over the exact
// (degree, probability-bits) pairs. Two scenarios with bit-identical tables
// share cache entries regardless of the name they were registered under.
func fingerprintDist(d *degreedist.Dist) string {
	h := sha256.New()
	var buf [16]byte
	for i := 0; i < d.N(); i++ {
		binary.LittleEndian.PutUint64(buf[:8], uint64(d.Degree(i)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(d.Prob(i)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

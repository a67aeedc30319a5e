package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"rumornet/internal/abm"
	"rumornet/internal/classic"
	"rumornet/internal/control"
	"rumornet/internal/core"
	"rumornet/internal/degreedist"
	"rumornet/internal/graph"
	"rumornet/internal/par"
	"rumornet/internal/plot"
)

// AblationAdjoint (ablA) compares the exact adjoint (full cross-group Θ
// coupling) against the paper's diagonal co-state equation (16) on the
// Fig. 4(a) problem: same objective, same bounds, different backward sweep.
func AblationAdjoint(cfg Config) (*Result, error) {
	m, err := fig3Model(cfg)
	if err != nil {
		return nil, err
	}
	ic, err := m.UniformIC(fig4IC)
	if err != nil {
		return nil, err
	}
	tf := fig4Tf
	if cfg.Quick {
		tf = 40
	}

	res := &Result{
		ID:    "ablA",
		Title: "Ablation: exact vs paper-diagonal adjoint in the FBSM",
	}
	variants := []struct {
		name    string
		adjoint control.Adjoint
	}{
		{"exact adjoint", control.AdjointExact},
		{"paper diagonal adjoint (Eq. 16)", control.AdjointDiagonal},
	}
	pols, err := par.Map(cfg.workers(), len(variants), func(i int) (*control.Policy, error) {
		opts := fig4Options(cfg)
		opts.Adjoint = variants[i].adjoint
		pol, err := control.Optimize(m, ic, tf, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", variants[i].name, err)
		}
		return pol, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pol := range pols {
		res.Series = append(res.Series,
			plot.Series{Name: variants[i].name + " ε1", X: pol.Schedule.T, Y: pol.Schedule.Eps1},
			plot.Series{Name: variants[i].name + " ε2", X: pol.Schedule.T, Y: pol.Schedule.Eps2},
		)
		res.setScalar("J:"+variants[i].name, pol.Cost.Total)
		res.setScalar("iterations:"+variants[i].name, float64(pol.Iterations))
		res.setScalar("coarseIterations:"+variants[i].name, float64(pol.CoarseIterations))
	}
	exact := res.Scalars["J:exact adjoint"]
	diag := res.Scalars["J:paper diagonal adjoint (Eq. 16)"]
	res.setScalar("relativeGap", math.Abs(diag-exact)/exact)
	res.addNote("J_exact = %.4g vs J_diag = %.4g (relative gap %.3g): dropping the "+
		"cross-group Θ coupling from the co-state weakens the blocking signal on a "+
		"many-group network, so the diagonal policy under-controls and pays a higher "+
		"true objective — the simplification in the paper's Eq. (16) is not free",
		exact, diag, math.Abs(diag-exact)/exact)
	return res, nil
}

// AblationInfectivity (ablW) compares the three infectivity families the
// paper discusses — constant, linear ω(k) = k, and the adopted saturating
// k^0.5/(1+k^0.5) — each calibrated to the SAME threshold r0 = 0.7220 in
// the Fig. 2 regime. Equal thresholds isolate the effect of where the
// infectivity mass sits in the degree spectrum: linear ω concentrates it on
// hubs (a hub-heavy rumor needs a far smaller per-contact acceptance rate
// to reach the same r0), which reshapes the transient even at a fixed
// asymptotic verdict.
func AblationInfectivity(cfg Config) (*Result, error) {
	d, err := diggDist(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "ablW",
		Title: "Ablation: infectivity families ω(k), each calibrated to r0 = 0.7220",
	}
	variants := []struct {
		name  string
		omega degreedist.KFunc
	}{
		{"ω(k) = c (identical infectivity)", degreedist.OmegaConstant(0.5)},
		{"ω(k) = k (linear)", degreedist.OmegaLinear()},
		{"ω(k) = √k/(1+√k) (saturating, paper)", paperOmega()},
	}
	tf := fig2Tf
	type calibrated struct {
		scale float64
		theta []float64
		t     []float64
	}
	outs, err := par.Map(cfg.workers(), len(variants), func(i int) (calibrated, error) {
		v := variants[i]
		scale, err := core.CalibrateLambdaScale(d, fig2Alpha, fig2Eps1, fig2Eps2, fig2R0, v.omega)
		if err != nil {
			return calibrated{}, fmt.Errorf("%s: %w", v.name, err)
		}
		m, err := core.NewModel(d, core.Params{
			Alpha:  fig2Alpha,
			Eps1:   fig2Eps1,
			Eps2:   fig2Eps2,
			Lambda: degreedist.LambdaLinear(scale),
			Omega:  v.omega,
		})
		if err != nil {
			return calibrated{}, fmt.Errorf("%s: %w", v.name, err)
		}
		ic, err := m.UniformIC(0.1)
		if err != nil {
			return calibrated{}, err
		}
		tr, err := m.Simulate(ic, tf, simOpts(cfg, tf))
		if err != nil {
			return calibrated{}, fmt.Errorf("%s: %w", v.name, err)
		}
		return calibrated{scale: scale, theta: tr.ThetaSeries(), t: tr.T}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		res.Series = append(res.Series, plot.Series{
			Name: variants[i].name, X: out.t, Y: out.theta,
		})
		res.setScalar("lambdaScale:"+variants[i].name, out.scale)
		res.setScalar("peakTheta:"+variants[i].name, maxOf(out.theta))
	}
	res.addNote("all variants share r0 = %.4f; the calibrated acceptance scale differs by "+
		"orders of magnitude (linear ω needs the smallest λ because hubs carry E[k²] "+
		"infectivity mass) — the paper's argument for a saturating ω", fig2R0)
	return res, nil
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

// AblationHomogeneous (ablH) quantifies what ignoring network heterogeneity
// costs: the heterogeneous model vs its homogeneous-mixing reduction at the
// mean degree, in both the Fig. 2 and Fig. 3 regimes.
func AblationHomogeneous(cfg Config) (*Result, error) {
	res := &Result{
		ID:    "ablH",
		Title: "Ablation: heterogeneous model vs homogeneous-mixing reduction",
	}
	regimes := []struct {
		name  string
		build func(Config) (*core.Model, error)
		tf    float64
	}{
		{"extinction regime (fig2)", fig2Model, fig2Tf},
		{"epidemic regime (fig3)", fig3Model, fig3Tf},
	}
	type regimeOut struct {
		trH, trHom   *core.Trajectory
		r0Het, r0Hom float64
	}
	outs, err := par.Map(cfg.workers(), len(regimes), func(i int) (regimeOut, error) {
		reg := regimes[i]
		m, err := reg.build(cfg)
		if err != nil {
			return regimeOut{}, err
		}
		h, err := classic.Homogenize(m)
		if err != nil {
			return regimeOut{}, err
		}
		icH, err := m.UniformIC(0.1)
		if err != nil {
			return regimeOut{}, err
		}
		icHom, err := h.UniformIC(0.1)
		if err != nil {
			return regimeOut{}, err
		}
		trH, err := m.Simulate(icH, reg.tf, simOpts(cfg, reg.tf))
		if err != nil {
			return regimeOut{}, err
		}
		trHom, err := h.Simulate(icHom, reg.tf, simOpts(cfg, reg.tf))
		if err != nil {
			return regimeOut{}, err
		}
		return regimeOut{trH: trH, trHom: trHom, r0Het: m.R0(), r0Hom: h.R0()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		reg := regimes[i]
		res.Series = append(res.Series,
			plot.Series{Name: reg.name + ": heterogeneous", X: out.trH.T, Y: out.trH.MeanISeries()},
			plot.Series{Name: reg.name + ": homogeneous", X: out.trHom.T, Y: out.trHom.MeanISeries()},
		)
		res.setScalar("r0 hetero "+reg.name, out.r0Het)
		res.setScalar("r0 homog "+reg.name, out.r0Hom)
	}
	res.addNote("collapsing the degree distribution to ⟨k⟩ changes the threshold and the " +
		"transient — the heterogeneity the paper's model is built to capture")
	return res, nil
}

// ValidationABM (valABM) cross-validates the mean-field ODE against the
// agent-based Monte-Carlo simulation on an explicit synthetic Digg graph,
// in both annealed (mean-field contacts) and quenched (graph edges) modes.
func ValidationABM(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.seed()))
	nodes := 30000
	trials := 3
	if cfg.Quick {
		nodes = 5000
		trials = 2
	}
	seq, err := graph.PowerLawDegreeSequence(nodes, 1.8, 1, 100, rng)
	if err != nil {
		return nil, err
	}
	g, err := graph.ConfigurationModel(seq, rng)
	if err != nil {
		return nil, err
	}
	dist, err := degreedist.FromGraph(g)
	if err != nil {
		return nil, err
	}

	// Closed population (α = 0) so the ABM and ODE share dynamics exactly.
	lambda := degreedist.LambdaLinear(0.01)
	omega := paperOmega()
	const (
		eps1 = 0.005
		eps2 = 0.05
		i0   = 0.05
		dt   = 0.5
	)
	steps := 160
	if cfg.Quick {
		steps = 80
	}
	m, err := core.NewModel(dist, core.Params{
		Alpha: 0, Eps1: eps1, Eps2: eps2, Lambda: lambda, Omega: omega,
	})
	if err != nil {
		return nil, err
	}
	ic, err := m.UniformIC(i0)
	if err != nil {
		return nil, err
	}
	tf := dt * float64(steps)
	tr, err := m.Simulate(ic, tf, &core.SimOptions{Step: dt / 10})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "valABM",
		Title: "Validation: mean-field ODE vs agent-based Monte Carlo",
	}
	res.Series = append(res.Series, plot.Series{
		Name: "ODE mean-field", X: tr.T, Y: tr.MeanISeries(),
	})

	for _, mode := range []struct {
		name string
		mode abm.Mode
	}{
		{"ABM annealed", abm.ModeAnnealed},
		{"ABM quenched", abm.ModeQuenched},
	} {
		r, err := abm.MeanRun(g, abm.Config{
			Lambda: lambda, Omega: omega,
			Eps1: eps1, Eps2: eps2,
			I0: i0, Dt: dt, Steps: steps,
			Mode:    mode.mode,
			Workers: cfg.Workers,
		}, trials, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode.name, err)
		}
		res.Series = append(res.Series, plot.Series{Name: mode.name, X: r.T, Y: r.I})

		var worst float64
		for j, tj := range r.T {
			y := tr.At(tj)
			var odeAt float64
			for i := 0; i < m.N(); i++ {
				odeAt += m.Dist().Prob(i) * m.I(y, i)
			}
			if d := math.Abs(odeAt - r.I[j]); d > worst {
				worst = d
			}
		}
		res.setScalar("maxAbsGap:"+mode.name, worst)
	}
	res.addNote("annealed ABM is the finite-N realization of the mean-field assumption; "+
		"its gap to the ODE (%.3g) is Monte-Carlo noise. The quenched gap (%.3g) measures "+
		"the real-network correction the paper's model ignores.",
		res.Scalars["maxAbsGap:ABM annealed"], res.Scalars["maxAbsGap:ABM quenched"])
	return res, nil
}

package experiments

import (
	"fmt"

	"rumornet/internal/control"
	"rumornet/internal/par"
	"rumornet/internal/plot"
)

// AblationInstruments (ablC) asks the question of Wen et al. ("To shut
// them up or to clarify", cited as [9]) inside the paper's optimal-control
// framework: is it better to spend the whole budget on blocking spreaders,
// on spreading truth, or on the jointly optimized mix? Each variant runs
// the FBSM with one control disabled (bound ≈ 0) or both enabled, on the
// same epidemic and objective.
func AblationInstruments(cfg Config) (*Result, error) {
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
	const disabled = 1e-9 // Options requires strictly positive bounds

	res := &Result{
		ID:    "ablC",
		Title: "Instrument ablation: block-only vs truth-only vs jointly optimized",
	}
	variants := []struct {
		name             string
		eps1Max, eps2Max float64
	}{
		{"truth only (ε2 ≈ 0)", fig4EpsMax, disabled},
		{"blocking only (ε1 ≈ 0)", disabled, fig4EpsMax},
		{"joint (paper)", fig4EpsMax, fig4EpsMax},
	}
	pols, err := par.Map(cfg.workers(), len(variants), func(i int) (*control.Policy, error) {
		v := variants[i]
		opts := fig4Options(cfg)
		opts.Eps1Max = v.eps1Max
		opts.Eps2Max = v.eps2Max
		pol, err := control.Optimize(m, ic, tf, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		return pol, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pol := range pols {
		v := variants[i]
		res.Series = append(res.Series, plot.Series{
			Name: v.name + " mean I(t)",
			X:    pol.Trajectory.T,
			Y:    pol.Trajectory.MeanISeries(),
		})
		res.setScalar("J:"+v.name, pol.Cost.Total)
		res.setScalar("terminalI:"+v.name, pol.Cost.Terminal)
		res.setScalar("iterations:"+v.name, float64(pol.Iterations))
		res.setScalar("coarseIterations:"+v.name, float64(pol.CoarseIterations))
	}
	joint := res.Scalars["J:joint (paper)"]
	truth := res.Scalars["J:truth only (ε2 ≈ 0)"]
	block := res.Scalars["J:blocking only (ε1 ≈ 0)"]
	res.addNote("objective J: truth-only %.4g, blocking-only %.4g, joint %.4g — the "+
		"jointly optimized mix never loses to either single instrument, the premise "+
		"of the paper's combined countermeasure design", truth, block, joint)
	return res, nil
}

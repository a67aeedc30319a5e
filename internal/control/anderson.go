package control

import (
	"math"

	"rumornet/internal/floats"
)

// andersonDepth is how many past sweeps the control update mixes.
const andersonDepth = 3

// andersonDropTol drops a history column from the least-squares problem
// when the part of it orthogonal to the newer columns is below this
// fraction of its length, which keeps the small triangular solve well
// conditioned.
const andersonDropTol = 1e-8

// anderson is the FBSM control update: safeguarded Anderson mixing (Walker
// & Ni, SIAM J. Numer. Anal. 2011) over the sweep map u ↦ G(u). The
// iterate u = [ε1; ε2] is the schedule packed over the grid, and G(u) is
// the clamped stationary point (18)–(19) computed from the sweep u drove.
//
// Each update solves min_γ ‖f − ΔF γ‖₂ over the last andersonDepth
// residual differences and moves to G(u) − ΔG γ, where f = G(u) − u and
// ΔF, ΔG hold the sweep-to-sweep changes of f and G(u). With no history
// (the first update) that is the plain sweep step u ← G(u). The safeguard:
// when the L1 residual ‖f‖₁ grows from one sweep to the next, the history
// is dropped and the update is the half step u + ½f instead.
//
// Every buffer is allocated once per Optimize run, so updates allocate
// nothing.
type anderson struct {
	// u and g are filled by the caller before each update: the current
	// iterate and its image G(u). out receives the next iterate.
	u, g, out []float64

	f, fPrev, gPrev []float64 // this and the previous sweep's residual; previous G(u)
	resPrev         float64   // ‖fPrev‖₁
	primed          bool      // fPrev, gPrev and resPrev hold a previous sweep

	dF, dG [andersonDepth][]float64 // Δf and ΔG history, oldest first
	hist   int                      // columns of dF/dG in use

	q     [andersonDepth][]float64 // orthonormal basis of the kept Δf columns
	r     [andersonDepth][andersonDepth]float64
	col   [andersonDepth]int // history column behind each basis vector
	gamma [andersonDepth]float64
}

func newAnderson(n int) *anderson {
	vec := func() []float64 { return make([]float64, n) }
	a := &anderson{u: vec(), g: vec(), out: vec(), f: vec(), fPrev: vec(), gPrev: vec()}
	for k := 0; k < andersonDepth; k++ {
		a.dF[k], a.dG[k], a.q[k] = vec(), vec(), vec()
	}
	return a
}

// reset empties the history and resizes every vector to n, at most the
// length newAnderson was given, for an iteration on a grid of that size.
func (a *anderson) reset(n int) {
	for _, v := range [...]*[]float64{&a.u, &a.g, &a.out, &a.f, &a.fPrev, &a.gPrev} {
		*v = (*v)[:n]
	}
	for k := 0; k < andersonDepth; k++ {
		a.dF[k], a.dG[k], a.q[k] = a.dF[k][:n], a.dG[k][:n], a.q[k][:n]
	}
	a.hist, a.primed = 0, false
}

// update computes the next iterate from u and g into out and returns it.
func (a *anderson) update() []float64 {
	u, g, f, out := a.u, a.g, a.f, a.out
	var res float64
	for i := range f {
		f[i] = g[i] - u[i]
		res += math.Abs(f[i])
	}
	damp := false
	switch {
	case !a.primed:
	case res > a.resPrev:
		// Safeguard: the last step made things worse, so forget the
		// history it was built from and take the half step.
		a.hist, damp = 0, true
	default:
		if a.hist == andersonDepth {
			// Recycle the oldest column's storage as the newest.
			f0, g0 := a.dF[0], a.dG[0]
			copy(a.dF[:], a.dF[1:])
			copy(a.dG[:], a.dG[1:])
			a.dF[andersonDepth-1], a.dG[andersonDepth-1] = f0, g0
			a.hist--
		}
		df, dg := a.dF[a.hist], a.dG[a.hist]
		for i := range f {
			df[i] = f[i] - a.fPrev[i]
			dg[i] = g[i] - a.gPrev[i]
		}
		a.hist++
	}
	copy(a.fPrev, f)
	copy(a.gPrev, g)
	a.resPrev, a.primed = res, true

	if damp {
		for i := range out {
			out[i] = u[i] + 0.5*f[i]
		}
		return out
	}
	kept := a.solve()
	copy(out, g)
	for l := 0; l < kept; l++ {
		floats.AddScaled(out, -a.gamma[l], a.dG[a.col[l]])
	}
	return out
}

// solve fits γ to min ‖f − ΔF γ‖₂ by modified Gram–Schmidt over the
// history, newest column first, dropping columns that are nearly
// dependent on newer ones. It returns how many columns it kept; gamma[l]
// is the coefficient of history column col[l].
func (a *anderson) solve() int {
	kept := 0
	for k := a.hist - 1; k >= 0; k-- {
		q := a.q[kept]
		copy(q, a.dF[k])
		n0 := norm2(q)
		for l := 0; l < kept; l++ {
			d := dot(a.q[l], q)
			a.r[l][kept] = d
			floats.AddScaled(q, -d, a.q[l])
		}
		nk := norm2(q)
		if nk <= andersonDropTol*n0 {
			continue
		}
		for i := range q {
			q[i] /= nk
		}
		a.r[kept][kept] = nk
		a.col[kept] = k
		kept++
	}
	// R γ = Qᵀ f by back substitution.
	for l := kept - 1; l >= 0; l-- {
		c := dot(a.q[l], a.f)
		for m := l + 1; m < kept; m++ {
			c -= a.r[l][m] * a.gamma[m]
		}
		a.gamma[l] = c / a.r[l][l]
	}
	return kept
}

func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func norm2(x []float64) float64 { return math.Sqrt(dot(x, x)) }

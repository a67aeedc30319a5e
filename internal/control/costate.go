package control

import (
	"math"

	"rumornet/internal/core"
	"rumornet/internal/floats"
)

// costateStep is the RK4 step kernel of the co-state system the backward
// sweep integrates, for both adjoints. The packed co-state is
// z = [ψ_1..ψ_n, φ_1..φ_n] in reversed time τ = tf − t, dz/dτ = −g(tf − τ, z),
// where g reads the forward trajectory interpolated at t, the schedule's
// ε1(t) and ε2(t), and Θ of the interpolated state.
//
// Like the forward kernel in internal/core, it makes one fused pass per
// stage: pass s rebuilds the stage co-state z + c·k_{s−1} in registers,
// writes k_s, and accumulates the exact adjoint's coupling sum
// Σ_j (ψ_j − φ_j) λ_j S_j of the next stage's co-state. The fourth pass
// writes the combination instead, and with it the coupling sum of the
// result against the state at the step's end time, which the next step
// opens with, and the result's finiteness check. The terms that depend on
// t alone are computed once per distinct stage time: the two midpoint
// stages share theirs, and the last stage's are the next step's first. A
// step sums its opening coupling in a pass of its own only when it does
// not take over both from the previous step: its first, and any whose z
// is not the previous step's dst.
//
// Every element sees the same operations in the same order as ode.RK4 over
// the plain co-state right-hand side, so the co-states are bit-identical to
// it (TestCostateStepMatchesRK4; DESIGN.md §11).
//
// On amd64 hosts with AVX the interpolation in fill and the exact
// adjoint's stage passes run an assembly body over the first n &^ 3
// groups, four groups per instruction, and their Go loops finish the rest.
// The bodies make the same IEEE operations in the same order, with no
// fused multiply-add, and add their lanes to each sum in ascending group
// order, so they leave every bit as the Go loops do (FuzzCostateKernels).
// The diagonal adjoint, which only the ablA ablation runs, stays in Go.
type costateStep struct {
	n          int
	exact      bool // AdjointExact; otherwise AdjointDiagonal
	avx        bool // run the AVX bodies; floats.HasAVX, tests may clear it
	c1, c2     float64
	lam, kphi  []float64 // λ(k_i) and φ(k_i)/⟨k⟩ per group
	phi        []float64 // φ(k_i) per group, for Θ
	meanK      float64   // ⟨k⟩
	k1, k2, k3 []float64 // stage derivatives, packed like z

	// Set by reset for each sweep.
	tf    float64
	tr    *core.Trajectory
	sched *Schedule

	at [3]stageTerms // at the step's start, midpoint and end times

	// carried is the previous step's dst and carry its exact coupling sum
	// against at[2]; carried is nil when there is none.
	carried *float64
	carry   float64
}

// stageTerms holds the t-only factors of the co-state derivative at one
// time t.
type stageTerms struct {
	t             float64
	y             []float64 // the forward state interpolated at t
	e1, e2, theta float64
	a1, a2        float64 // −2c1ε1², −2c2ε2²
}

func newCostateStep(m *core.Model) *costateStep {
	n := m.N()
	buf := make([]float64, 9*n+6*n)
	k := &costateStep{
		n:     n,
		lam:   buf[0*n : 1*n : 1*n],
		kphi:  buf[1*n : 2*n : 2*n],
		phi:   buf[2*n : 3*n : 3*n],
		meanK: m.MeanDegree(),
		k1:    buf[3*n : 5*n : 5*n],
		k2:    buf[5*n : 7*n : 7*n],
		k3:    buf[7*n : 9*n : 9*n],
		avx:   floats.HasAVX(),
	}
	for j := range k.at {
		k.at[j].y = buf[9*n+2*j*n : 9*n+2*(j+1)*n : 9*n+2*(j+1)*n]
	}
	for i := 0; i < n; i++ {
		k.lam[i] = m.Lambda(i)
		k.kphi[i] = m.Varphi(i) / k.meanK
		k.phi[i] = m.Varphi(i)
	}
	return k
}

// reset points the kernel at one sweep's trajectory, schedule and options.
func (k *costateStep) reset(tr *core.Trajectory, sched *Schedule, opts Options) {
	k.exact = opts.Adjoint == AdjointExact
	k.c1, k.c2 = opts.Cost.C1, opts.Cost.C2
	k.tf = sched.Horizon()
	k.tr, k.sched = tr, sched
	for j := range k.at {
		k.at[j].t = math.NaN()
	}
	k.carried = nil
}

// fill computes the t-only terms at t: the forward state interpolated as
// Solution.AtInto does, with Θ of it summed as Model.Theta does in the
// same pass.
func (k *costateStep) fill(at *stageTerms, t float64) {
	n := k.n
	lo, hi, w := k.tr.Bracket(t)
	ylo, yhi := k.tr.Y[lo][:2*n:2*n], k.tr.Y[hi][:2*n:2*n]
	y, phi := at.y[:2*n:2*n], k.phi[:n:n]
	var sum float64
	if lo == hi {
		copy(y, ylo)
		for i, v := range y[n:] {
			sum += phi[i] * v
		}
	} else {
		sum = interp(k.avx, y, ylo, yhi, phi, w)
	}
	e1, e2 := k.sched.Eps1At(t), k.sched.Eps2At(t)
	at.t, at.e1, at.e2, at.theta = t, e1, e2, sum/k.meanK
	at.a1 = -2 * k.c1 * e1 * e1
	at.a2 = -2 * k.c2 * e2 * e2
}

// interp writes y = ylo + w·(yhi − ylo), packed like the state, and
// returns Θ's numerator Σ φ_i·I_i of it. n is len(phi); avx runs the AVX
// body over the first n &^ 3 groups.
func interp(avx bool, y, ylo, yhi, phi []float64, w float64) float64 {
	n := len(phi)
	ys, slo, shi := y[:n:n], ylo[:n:n], yhi[:n:n]
	yi, ilo, ihi := y[n:2*n:2*n], ylo[n:2*n:2*n], yhi[n:2*n:2*n]
	i, sum := 0, 0.0
	if avx {
		i, sum = n&^3, interpAVX(y, ylo, yhi, phi, w)
	}
	for j := i; j < n; j++ {
		v := slo[j]
		ys[j] = v + w*(shi[j]-v)
	}
	for ; i < n; i++ {
		v := ilo[i]
		inf := v + w*(ihi[i]-v)
		yi[i] = inf
		sum += phi[i] * inf
	}
	return sum
}

// step is an ode.Step in reversed time: it writes z(τ+h) into dst and
// reports whether it is finite.
func (k *costateStep) step(tau float64, z []float64, h float64, dst []float64) bool {
	half := h / 2
	t0, tm, t1 := k.tf-tau, k.tf-(tau+half), k.tf-(tau+h)
	handoff := k.at[2].t == t0
	if handoff {
		k.at[0], k.at[2] = k.at[2], k.at[0]
	} else {
		k.fill(&k.at[0], t0)
	}
	k.fill(&k.at[1], tm)
	k.fill(&k.at[2], t1)

	var coupling float64
	switch {
	case !k.exact:
	case handoff && &z[0] == k.carried:
		coupling = k.carry
	default:
		coupling = openingCoupling(z, k.at[0].y, k.lam)
	}
	coupling = k.pass(z, nil, 0, &k.at[0], coupling, k.k1, half, &k.at[1])
	coupling = k.pass(z, k.k1, half, &k.at[1], coupling, k.k2, half, &k.at[1])
	coupling = k.pass(z, k.k2, half, &k.at[1], coupling, k.k3, h, &k.at[2])
	coupling, finite := k.last(z, h, &k.at[2], coupling, dst)
	k.carried, k.carry = &dst[0], coupling
	return finite
}

// openingCoupling is the exact adjoint's opening pass: the coupling sum
// Σ_j ((ψ_j − φ_j)·λ_j)·S_j of the co-state z against the state y, in
// ascending group order. n is len(lam).
func openingCoupling(z, y, lam []float64) float64 {
	n := len(lam)
	zs, zi, ys := z[:n:n], z[n:2*n:2*n], y[:n:n]
	var acc float64
	for j, s := range ys {
		acc += (zs[j] - zi[j]) * lam[j] * s
	}
	return acc
}

// pass is one of the first three stages: it evaluates the derivative at the
// stage co-state z + c·kp (z itself when kp is nil) under at, writes it to
// ko, and returns the coupling sum of the next stage's co-state z + cn·ko
// against the state at next. The four loops differ only in how they read
// the stage co-state and in the adjoint's dφ_i/dt; each keeps the t-only
// terms in locals so the compiler holds them in registers. The exact
// adjoint's loops start where their AVX body stopped.
func (k *costateStep) pass(z, kp []float64, c float64, at *stageTerms, coupling float64, ko []float64, cn float64, next *stageTerms) float64 {
	n := k.n
	zs, zi := z[:n:n], z[n:2*n:2*n]
	ys, yi := at.y[:n:n], at.y[n:2*n:2*n]
	os, oi := ko[:n:n], ko[n:2*n:2*n]
	ns := next.y[:n:n]
	lam, kphi := k.lam[:n:n], k.kphi[:n:n]
	e1, e2, theta, a1, a2 := at.e1, at.e2, at.theta, at.a1, at.a2
	i, acc := 0, 0.0
	switch {
	case kp == nil && k.exact:
		if k.avx {
			i, acc = n&^3, costateFirstAVX(z, at.y, ko, next.y, lam, kphi, e1, e2, theta, a1, a2, coupling, cn)
		}
		for ; i < n; i++ {
			s, l, u, v := ys[i], lam[i], zs[i], zi[i]
			// dψ_i/dt = −2c1ε1²S_i + ψ_i(λΘ + ε1) − φ_iλΘ
			dpsi := a1*s + u*(l*theta+e1) - v*l*theta
			// dφ_i/dt = −2c2ε2²I_i + (φ(k_i)/⟨k⟩)Σ_j(ψ_j−φ_j)λ_jS_j + φ_iε2
			dphi := a2*yi[i] + kphi[i]*coupling + v*e2
			// Reversed time flips the sign.
			os[i], oi[i] = -dpsi, -dphi
			acc += ((u + cn*-dpsi) - (v + cn*-dphi)) * l * ns[i]
		}
	case kp == nil:
		for i, s := range ys {
			l, u, v := lam[i], zs[i], zi[i]
			dpsi := a1*s + u*(l*theta+e1) - v*l*theta
			// The paper's Equation (16): the i = j term of the coupling only.
			kterm := kphi[i] * l * s
			dphi := a2*yi[i] + u*kterm - v*(kterm-e2)
			os[i], oi[i] = -dpsi, -dphi
		}
	case k.exact:
		ps, pi := kp[:n:n], kp[n:2*n:2*n]
		if k.avx {
			i, acc = n&^3, costateNextAVX(z, kp, at.y, ko, next.y, lam, kphi, c, e1, e2, theta, a1, a2, coupling, cn)
		}
		for ; i < n; i++ {
			s, l, u, v := ys[i], lam[i], zs[i]+c*ps[i], zi[i]+c*pi[i]
			dpsi := a1*s + u*(l*theta+e1) - v*l*theta
			dphi := a2*yi[i] + kphi[i]*coupling + v*e2
			os[i], oi[i] = -dpsi, -dphi
			acc += ((zs[i] + cn*-dpsi) - (zi[i] + cn*-dphi)) * l * ns[i]
		}
	default:
		ps, pi := kp[:n:n], kp[n:2*n:2*n]
		for i, s := range ys {
			l, u, v := lam[i], zs[i]+c*ps[i], zi[i]+c*pi[i]
			dpsi := a1*s + u*(l*theta+e1) - v*l*theta
			kterm := kphi[i] * l * s
			dphi := a2*yi[i] + u*kterm - v*(kterm-e2)
			os[i], oi[i] = -dpsi, -dphi
		}
	}
	return acc
}

// last is the fourth stage at z + h·k3 under at, fused with the RK4
// combination into dst. It returns the exact adjoint's coupling sum of dst
// against at's state, summed in ascending group order as the opening pass
// sums it (0 for the diagonal adjoint), and whether every element of dst
// is finite: v·0 is ±0 for a finite v and NaN otherwise, and NaN survives
// every sum.
func (k *costateStep) last(z []float64, h float64, at *stageTerms, coupling float64, dst []float64) (float64, bool) {
	n := k.n
	zs, zi := z[:n:n], z[n:2*n:2*n]
	ys, yi := at.y[:n:n], at.y[n:2*n:2*n]
	ds, di := dst[:n:n], dst[n:2*n:2*n]
	k1s, k1i := k.k1[:n:n], k.k1[n:2*n:2*n]
	k2s, k2i := k.k2[:n:n], k.k2[n:2*n:2*n]
	k3s, k3i := k.k3[:n:n], k.k3[n:2*n:2*n]
	lam, kphi := k.lam[:n:n], k.kphi[:n:n]
	e1, e2, theta, a1, a2 := at.e1, at.e2, at.theta, at.a1, at.a2
	h6, h3 := h/6, h/3
	exact := k.exact
	i, acc, fin := 0, 0.0, 0.0
	if exact && k.avx {
		i = n &^ 3
		acc, fin = costateLastAVX(z, k.k1, k.k2, k.k3, at.y, dst, lam, kphi, h, e1, e2, theta, a1, a2, coupling, h6, h3)
	}
	for ; i < n; i++ {
		s, l, u, v := ys[i], lam[i], zs[i]+h*k3s[i], zi[i]+h*k3i[i]
		dpsi := a1*s + u*(l*theta+e1) - v*l*theta
		var dphi float64
		if exact {
			dphi = a2*yi[i] + kphi[i]*coupling + v*e2
		} else {
			kterm := kphi[i] * l * s
			dphi = a2*yi[i] + u*kterm - v*(kterm-e2)
		}
		d := zs[i] + h6*k1s[i] + h3*k2s[i] + h3*k3s[i] + h6*-dpsi
		f := zi[i] + h6*k1i[i] + h3*k2i[i] + h3*k3i[i] + h6*-dphi
		ds[i], di[i] = d, f
		if exact {
			acc += (d - f) * l * s
		}
		fin += d*0 + f*0
	}
	return acc, fin == 0
}

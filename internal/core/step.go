package core

import "rumornet/internal/floats"

// stepper is System (1)'s own RK4 step kernel. ode.RK4 over Model.RHS makes
// about thirteen passes over the 2n-vector per step: two per RHS
// evaluation, one per stage build and one for the combination. The kernel
// makes exactly four, one per stage. Pass s rebuilds the stage state
// y + c·k_{s−1} in registers, writes k_s, and accumulates the Θ numerator
// of the next stage's state. The fourth pass writes the combination
// instead, and with it the Θ numerator of the result, which the next step
// opens with, and the result's finiteness check. Only a step whose y is
// not the previous step's dst (the first step of an integration) sums its
// opening Θ in a pass of its own. Under SimOptions.Project a fifth pass
// clamps the result and sums both again.
//
// Every element sees the same operations in the same order as ode.RK4 over
// Model.RHS — the stage state y + c·k, the Θ sum in ascending group order,
// (λ_i·S_i)·Θ, and the combination ((((y + h/6·k1) + h/3·k2) + h/3·k3) +
// h/6·k4) — so the steps are bit-identical to it (TestModelStepMatchesRK4;
// DESIGN.md §11).
//
// On amd64 hosts with AVX each stage pass runs an assembly body over the
// first n &^ 3 groups, four groups per instruction, and its Go loop
// finishes the rest. The bodies make the same IEEE operations in the same
// order, with no fused multiply-add, and add their lanes to the Θ sum in
// ascending group order, so they leave every bit as the Go loops do
// (FuzzStageKernels).
type stepper struct {
	m          *Model
	buf        []float64 // k1, k2 and k3 back to back
	k1, k2, k3 []float64 // stage derivatives, packed like the state
	avx        bool      // run the AVX bodies; floats.HasAVX, tests may clear it
	clamp      bool      // SimOptions.Project: clamp each result into the simplex

	// carried is the previous step's dst and carry the Θ numerator of it;
	// carried is nil before the first step.
	carried *float64
	carry   float64

	// eps1At and eps2At are the scheduled countermeasures; nil means the
	// model's constant rate.
	eps1At, eps2At func(t float64) float64
}

// newStepper returns the model's step kernel under the given controls.
// scratch, when it has 3·2n elements, becomes the stage buffers instead of
// a fresh allocation.
func (m *Model) newStepper(eps1At, eps2At func(float64) float64, scratch []float64) *stepper {
	d := 2 * m.n
	if len(scratch) != 3*d {
		scratch = make([]float64, 3*d)
	}
	return &stepper{
		m:      m,
		buf:    scratch,
		k1:     scratch[0*d : 1*d : 1*d],
		k2:     scratch[1*d : 2*d : 2*d],
		k3:     scratch[2*d : 3*d : 3*d],
		avx:    floats.HasAVX(),
		eps1At: eps1At,
		eps2At: eps2At,
	}
}

// eps returns the countermeasure rates at t.
func (st *stepper) eps(t float64) (e1, e2 float64) {
	e1, e2 = st.m.p.Eps1, st.m.p.Eps2
	if st.eps1At != nil {
		e1 = st.eps1At(t)
	}
	if st.eps2At != nil {
		e2 = st.eps2At(t)
	}
	return e1, e2
}

// step is an ode.Step: it writes the state at t+h into dst and reports
// whether it is finite.
func (st *stepper) step(t float64, y []float64, h float64, dst []float64) bool {
	m := st.m
	n := m.n
	lam, phi := m.lambda[:n:n], m.varphi[:n:n]
	alpha, meanK := m.p.Alpha, m.meanK
	half := h / 2
	e1a, e2a := st.eps(t)
	e1b, e2b := st.eps(t + half)
	e1c, e2c := st.eps(t + h)

	acc := st.carry
	if &y[0] != st.carried {
		acc = thetaNumerator(y, phi)
	}
	theta := acc / meanK

	// Stage 1 at y; the next stage is y + h/2·k1.
	theta = stageFirst(st.avx, y, st.k1, lam, phi, alpha, theta, e1a, e2a, half) / meanK
	// Stage 2 at y + h/2·k1; the next stage is y + h/2·k2.
	theta = stageNext(st.avx, y, st.k1, st.k2, lam, phi, half, alpha, theta, e1b, e2b, half) / meanK
	// Stage 3 at y + h/2·k2; the next stage is y + h·k3.
	theta = stageNext(st.avx, y, st.k2, st.k3, lam, phi, half, alpha, theta, e1b, e2b, h) / meanK
	// Stage 4 at y + h·k3, and the combination.
	acc, finite := stageLast(st.avx, y, st.k1, st.k2, st.k3, dst, lam, phi, h, alpha, theta, e1c, e2c)
	if st.clamp {
		acc, finite = project(dst, phi)
	}
	st.carried, st.carry = &dst[0], acc
	return finite
}

// thetaNumerator is the opening pass: Θ's numerator Σ φ_i·I_i of y, in
// ascending group order. n is len(phi).
func thetaNumerator(y, phi []float64) float64 {
	n := len(phi)
	var acc float64
	for i, v := range y[n : 2*n : 2*n] {
		acc += phi[i] * v
	}
	return acc
}

// project clamps y into the simplex, S_i ∈ [0, 1] and I_i ∈ [0, 1 − S_i],
// and returns what stageLast returns for the unclamped state: the Θ
// numerator Σ φ_i·I_i in ascending group order, and whether every element
// is finite. n is len(phi).
func project(y, phi []float64) (float64, bool) {
	n := len(phi)
	ys, yi := y[:n:n], y[n:2*n:2*n]
	var acc, fin float64
	for i, v := range ys {
		s := floats.Clamp(v, 0, 1)
		inf := floats.Clamp(yi[i], 0, 1-s)
		ys[i], yi[i] = s, inf
		acc += phi[i] * inf
		fin += s*0 + inf*0
	}
	return acc, fin == 0
}

// The stage passes. y, the stage derivatives k and dst are packed
// [S_1..S_n, I_1..I_n]; lam and phi hold λ(k_i) and φ(k_i), and n is their
// length. avx runs the AVX body over the first n &^ 3 groups; the Go loop
// does the rest.

// stageFirst writes k = f(y) under the rates e1, e2 and the coupling theta,
// and returns the Θ numerator Σ φ_i·(I_i + cn·k_i^I) of the next stage's
// state.
func stageFirst(avx bool, y, k, lam, phi []float64, alpha, theta, e1, e2, cn float64) float64 {
	n := len(lam)
	ys, yi := y[:n:n], y[n:2*n:2*n]
	ks, ki := k[:n:n], k[n:2*n:2*n]
	phi = phi[:n:n]
	i, acc := 0, 0.0
	if avx {
		i, acc = n&^3, stageFirstAVX(y, k, lam, phi, alpha, theta, e1, e2, cn)
	}
	for ; i < n; i++ {
		s, inf := ys[i], yi[i]
		force := lam[i] * s * theta
		vs := alpha - force - e1*s
		vi := force - e2*inf
		ks[i], ki[i] = vs, vi
		acc += phi[i] * (inf + cn*vi)
	}
	return acc
}

// stageNext is stageFirst at the stage state y + c·kp, writing ko.
func stageNext(avx bool, y, kp, ko, lam, phi []float64, c, alpha, theta, e1, e2, cn float64) float64 {
	n := len(lam)
	ys, yi := y[:n:n], y[n:2*n:2*n]
	ps, pi := kp[:n:n], kp[n:2*n:2*n]
	os, oi := ko[:n:n], ko[n:2*n:2*n]
	phi = phi[:n:n]
	i, acc := 0, 0.0
	if avx {
		i, acc = n&^3, stageNextAVX(y, kp, ko, lam, phi, c, alpha, theta, e1, e2, cn)
	}
	for ; i < n; i++ {
		s, inf := ys[i]+c*ps[i], yi[i]+c*pi[i]
		force := lam[i] * s * theta
		vs := alpha - force - e1*s
		vi := force - e2*inf
		os[i], oi[i] = vs, vi
		acc += phi[i] * (yi[i] + cn*vi)
	}
	return acc
}

// stageLast evaluates the fourth stage at y + h·k3, writes the RK4
// combination of y and k1..k4 into dst, and returns the Θ numerator
// Σ φ_i·I_i of dst, summed in ascending group order as the opening pass
// sums it, and whether every element of dst is finite: v·0 is ±0 for a
// finite v and NaN otherwise, and NaN survives every sum.
func stageLast(avx bool, y, k1, k2, k3, dst, lam, phi []float64, h, alpha, theta, e1, e2 float64) (float64, bool) {
	n := len(lam)
	phi = phi[:n:n]
	ys, yi := y[:n:n], y[n:2*n:2*n]
	k1s, k1i := k1[:n:n], k1[n:2*n:2*n]
	k2s, k2i := k2[:n:n], k2[n:2*n:2*n]
	k3s, k3i := k3[:n:n], k3[n:2*n:2*n]
	ds, di := dst[:n:n], dst[n:2*n:2*n]
	h6, h3 := h/6, h/3
	i, acc, fin := 0, 0.0, 0.0
	if avx {
		i = n &^ 3
		acc, fin = stageLastAVX(y, k1, k2, k3, dst, lam, phi, h, alpha, theta, e1, e2, h6, h3)
	}
	for ; i < n; i++ {
		v, w := ys[i], yi[i]
		s, inf := v+h*k3s[i], w+h*k3i[i]
		force := lam[i] * s * theta
		ks := alpha - force - e1*s
		ki := force - e2*inf
		d := v + h6*k1s[i] + h3*k2s[i] + h3*k3s[i] + h6*ks
		e := w + h6*k1i[i] + h3*k2i[i] + h3*k3i[i] + h6*ki
		ds[i], di[i] = d, e
		acc += phi[i] * e
		fin += d*0 + e*0
	}
	return acc, fin == 0
}

package core

// stepper is System (1)'s own RK4 step kernel. ode.RK4 over Model.RHS makes
// about thirteen passes over the 2n-vector per step: two per RHS
// evaluation, one per stage build and one for the combination. The kernel
// makes one pass per stage instead. Pass s rebuilds the stage state
// y + c·k_{s−1} in registers, writes k_s, and accumulates the Θ numerator
// of the next stage's state; the fourth pass writes the combination
// instead. Only a short pass for Θ of the step's start state precedes
// them.
//
// Every element sees the same operations in the same order as ode.RK4 over
// Model.RHS — the stage state y + c·k, the Θ sum in ascending group order,
// (λ_i·S_i)·Θ, and the combination ((((y + h/6·k1) + h/3·k2) + h/3·k3) +
// h/6·k4) — so the steps are bit-identical to it (TestModelStepMatchesRK4;
// DESIGN.md §11).
type stepper struct {
	m          *Model
	buf        []float64 // k1, k2 and k3 back to back
	k1, k2, k3 []float64 // stage derivatives, packed like the state

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

// step is an ode.Step: it writes the state at t+h into dst.
func (st *stepper) step(t float64, y []float64, h float64, dst []float64) {
	m := st.m
	n := m.n
	ys, yi := y[:n:n], y[n:2*n:2*n]
	ds, di := dst[:n:n], dst[n:2*n:2*n]
	k1s, k1i := st.k1[:n:n], st.k1[n:2*n:2*n]
	k2s, k2i := st.k2[:n:n], st.k2[n:2*n:2*n]
	k3s, k3i := st.k3[:n:n], st.k3[n:2*n:2*n]
	lam, phi := m.lambda[:n:n], m.varphi[:n:n]
	alpha, meanK := m.p.Alpha, m.meanK
	half := h / 2
	e1a, e2a := st.eps(t)
	e1b, e2b := st.eps(t + half)
	e1c, e2c := st.eps(t + h)

	var acc float64
	for i, v := range yi {
		acc += phi[i] * v
	}
	theta := acc / meanK

	// Stage 1 at y; the next stage is y + h/2·k1.
	acc = 0
	for i, s := range ys {
		inf := yi[i]
		force := lam[i] * s * theta
		ks := alpha - force - e1a*s
		ki := force - e2a*inf
		k1s[i], k1i[i] = ks, ki
		acc += phi[i] * (inf + half*ki)
	}
	theta = acc / meanK

	// Stage 2 at y + h/2·k1; the next stage is y + h/2·k2.
	acc = 0
	for i, v := range ys {
		s, inf := v+half*k1s[i], yi[i]+half*k1i[i]
		force := lam[i] * s * theta
		ks := alpha - force - e1b*s
		ki := force - e2b*inf
		k2s[i], k2i[i] = ks, ki
		acc += phi[i] * (yi[i] + half*ki)
	}
	theta = acc / meanK

	// Stage 3 at y + h/2·k2; the next stage is y + h·k3.
	acc = 0
	for i, v := range ys {
		s, inf := v+half*k2s[i], yi[i]+half*k2i[i]
		force := lam[i] * s * theta
		ks := alpha - force - e1b*s
		ki := force - e2b*inf
		k3s[i], k3i[i] = ks, ki
		acc += phi[i] * (yi[i] + h*ki)
	}
	theta = acc / meanK

	// Stage 4 at y + h·k3, and the combination.
	h6, h3 := h/6, h/3
	for i, v := range ys {
		w := yi[i]
		s, inf := v+h*k3s[i], w+h*k3i[i]
		force := lam[i] * s * theta
		ks := alpha - force - e1c*s
		ki := force - e2c*inf
		ds[i] = v + h6*k1s[i] + h3*k2s[i] + h3*k3s[i] + h6*ks
		di[i] = w + h6*k1i[i] + h3*k2i[i] + h3*k3i[i] + h6*ki
	}
}

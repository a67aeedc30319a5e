package control

// The AVX bodies of the co-state kernel, in costate_amd64.s. Each runs the
// first len(lam) &^ 3 (interpAVX: len(phi) &^ 3) groups of the Go loop it
// stands for and returns the sum of those groups; the caller guarantees
// the lengths. ns is the next stage's packed state, of which they read
// the S half. costateLastAVX returns the coupling sum of dst against y and
// the sum of v − v over the dst elements it wrote.

//go:noescape
func interpAVX(y, ylo, yhi, phi []float64, w float64) float64

//go:noescape
func costateFirstAVX(z, y, ko, ns, lam, kphi []float64, e1, e2, theta, a1, a2, coupling, cn float64) float64

//go:noescape
func costateNextAVX(z, kp, y, ko, ns, lam, kphi []float64, c, e1, e2, theta, a1, a2, coupling, cn float64) float64

//go:noescape
func costateLastAVX(z, k1, k2, k3, y, dst, lam, kphi []float64, h, e1, e2, theta, a1, a2, coupling, h6, h3 float64) (next, fin float64)

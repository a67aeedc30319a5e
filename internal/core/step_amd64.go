package core

// The AVX bodies of the stage passes, in step_amd64.s. Each runs the first
// len(lam) &^ 3 groups of the Go function it is named after and returns
// the Θ numerator of those groups; the caller guarantees the lengths.
// stageLastAVX also returns the sum of v·0 over the dst elements it wrote.

//go:noescape
func stageFirstAVX(y, k, lam, phi []float64, alpha, theta, e1, e2, cn float64) float64

//go:noescape
func stageNextAVX(y, kp, ko, lam, phi []float64, c, alpha, theta, e1, e2, cn float64) float64

//go:noescape
func stageLastAVX(y, k1, k2, k3, dst, lam, phi []float64, h, alpha, theta, e1, e2, h6, h3 float64) (num, fin float64)

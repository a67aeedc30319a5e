//go:build !amd64

package core

// Off amd64 floats.HasAVX is false, so the stage passes never call these.

func stageFirstAVX(y, k, lam, phi []float64, alpha, theta, e1, e2, cn float64) float64 {
	panic("core: no AVX body off amd64")
}

func stageNextAVX(y, kp, ko, lam, phi []float64, c, alpha, theta, e1, e2, cn float64) float64 {
	panic("core: no AVX body off amd64")
}

func stageLastAVX(y, k1, k2, k3, dst, lam, phi []float64, h, alpha, theta, e1, e2, h6, h3 float64) (num, fin float64) {
	panic("core: no AVX body off amd64")
}

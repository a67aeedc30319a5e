//go:build !amd64

package control

// Off amd64 floats.HasAVX is false, so the co-state kernel never calls
// these.

func interpAVX(y, ylo, yhi, phi []float64, w float64) float64 {
	panic("control: no AVX body off amd64")
}

func costateFirstAVX(z, y, ko, ns, lam, kphi []float64, e1, e2, theta, a1, a2, coupling, cn float64) float64 {
	panic("control: no AVX body off amd64")
}

func costateNextAVX(z, kp, y, ko, ns, lam, kphi []float64, c, e1, e2, theta, a1, a2, coupling, cn float64) float64 {
	panic("control: no AVX body off amd64")
}

func costateLastAVX(z, k1, k2, k3, y, dst, lam, kphi []float64, h, e1, e2, theta, a1, a2, coupling, h6, h3 float64) (next, fin float64) {
	panic("control: no AVX body off amd64")
}

//go:build !amd64

package floats

// cpuAVX is false off amd64: AVX is an amd64 extension.
func cpuAVX() bool { return false }

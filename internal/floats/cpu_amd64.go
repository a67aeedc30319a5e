package floats

// cpuAVX reports whether the CPU runs AVX instructions and the OS saves
// their registers. It is written in assembly (cpu_amd64.s).
func cpuAVX() bool

package floats

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestHasAVXMatchesCPUInfo checks the CPUID/XGETBV probe against the flags
// Linux reports for the CPU, where /proc/cpuinfo exists, and that it is
// false off amd64.
func TestHasAVXMatchesCPUInfo(t *testing.T) {
	t.Logf("HasAVX() = %v on %s", HasAVX(), runtime.GOARCH)
	if runtime.GOARCH != "amd64" {
		if HasAVX() {
			t.Fatal("HasAVX() is true off amd64")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare against")
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			want := false
			for _, f := range strings.Fields(flags) {
				want = want || f == "avx"
			}
			if HasAVX() != want {
				t.Fatalf("HasAVX() = %v, /proc/cpuinfo lists avx: %v", HasAVX(), want)
			}
			return
		}
	}
	t.Skip("no flags line in /proc/cpuinfo")
}

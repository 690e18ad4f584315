//go:build unix

package server

import (
	"runtime"
	"syscall"
)

// maxRSS returns the process's peak resident set size in bytes.
func maxRSS() (uint64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return uint64(ru.Maxrss), true // bytes there, KiB elsewhere
	}
	return uint64(ru.Maxrss) << 10, true
}

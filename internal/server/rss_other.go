//go:build !unix

package server

// maxRSS reports no figure where getrusage is unavailable.
func maxRSS() (uint64, bool) { return 0, false }

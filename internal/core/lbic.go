// Package core is the LBIC's entry point under the names the benchmark's
// ledger links (New, Config, Policy); the arbiter itself is ports.Banks,
// built by ports.NewLBIC.
package core

import "lbic/internal/ports"

// Config describes an MxN LBIC (see ports.LBICConfig).
type Config = ports.LBICConfig

// Policy selects how each bank chooses the line it opens in a cycle.
type Policy = ports.Policy

const (
	// PolicyLeading opens the oldest ready request's line (§5.2).
	PolicyLeading = ports.PolicyLeading
	// PolicyGreedy opens the line with the most combinable requests.
	PolicyGreedy = ports.PolicyGreedy
)

// New returns an MxN LBIC arbiter.
func New(cfg Config) (*ports.Banks, error) { return ports.NewLBIC(cfg) }

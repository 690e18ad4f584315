package main

import (
	"fmt"
	"math/rand"

	"lbic"
)

// portSampler draws port organizations from the registry's grammar for the
// served workloads: every wire kind, widths and banks 1-16, line and parity
// ports, selectors, the greedy and speculative variants, and store-queue
// depths. It keeps only names that lbic.ParsePortName and Validate accept
// and whose arbiter builds, and never returns a name twice, so every draw
// is a design point the server has not seen and can run.
type portSampler struct {
	rng  *rand.Rand
	orgs []lbic.PortOrgInfo
	seen map[string]bool
}

// maxDraws bounds the rejection loop once the grammar's small kinds are
// used up.
const maxDraws = 100000

// newPortSampler returns a sampler over the registry's wire kinds that
// never yields a name in used.
func newPortSampler(rng *rand.Rand, used ...string) *portSampler {
	s := &portSampler{rng: rng, seen: make(map[string]bool)}
	for _, o := range lbic.PortOrganizations() {
		if o.Wire {
			s.orgs = append(s.orgs, o)
		}
	}
	for _, name := range used {
		s.seen[name] = true
	}
	return s
}

// next returns a canonical port name (PortConfig.Key) not returned before.
func (s *portSampler) next() (string, error) {
	for range maxDraws {
		o := s.orgs[s.rng.Intn(len(s.orgs))]
		p := lbic.PortConfig{Kind: o.Kind}
		// Each kind's schema names the fields its grammar consumes.
		for _, field := range o.Schema {
			switch field {
			case "width":
				p.Width = 1 + s.rng.Intn(16)
			case "banks":
				p.Banks = 1 + s.rng.Intn(16)
			case "line_ports":
				p.LinePorts = s.rng.Intn(17)
			case "parity_banks":
				p.ParityBanks = 1 + s.rng.Intn(16)
			case "selector":
				p.Selector = lbic.BankSelectorKind(s.rng.Intn(3))
			case "greedy":
				p.Greedy = s.rng.Intn(2) == 1
			case "speculative":
				p.Speculative = s.rng.Intn(2) == 1
			case "store_queue_depth":
				if s.rng.Intn(2) == 1 {
					p.StoreQueueDepth = 1 + s.rng.Intn(16)
				}
			}
		}
		if p.Validate() != nil {
			continue
		}
		name := p.Key()
		q, err := lbic.ParsePortName(name)
		if err != nil || q.Key() != name || s.seen[name] {
			continue
		}
		// Validate accepts line buffers wider than a line's eight words,
		// which the arbiter constructors reject; building the arbiter (a
		// scenario of no references) filters those out.
		if _, err := lbic.ScenarioCycles(q, nil); err != nil {
			continue
		}
		s.seen[name] = true
		return name, nil
	}
	return "", fmt.Errorf("port sampler: no unused port organization in %d draws", maxDraws)
}

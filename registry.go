package lbic

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"lbic/internal/ports"
)

// This file is the port-organization registry: one table entry per kind
// carrying everything kind-specific — the serialization token, display name,
// JSON schema, name/key grammar, parser, validator, peak width, arbiter
// factory, report flattening, result-stat collection, and the kind's
// representative configurations for experiment axes. PortKind.String,
// PortConfig.Name/Key/Validate/PeakWidth, MarshalText/UnmarshalText,
// ParsePortName, buildArbiter, and reportPort all derive from it, so adding
// a port organization is one registry entry plus its arbiter — no parallel
// switch statements to keep in sync.

// portOrg is one registered port organization.
type portOrg struct {
	kind PortKind
	// token is the canonical serialization token (the Name prefix); aliases
	// are additionally accepted on parse.
	token   string
	aliases []string
	// display is the organization name used in the paper's tables.
	display string
	// wire reports whether the kind crosses serialization boundaries;
	// custom ports do not (the factory is a function).
	wire bool
	// schema lists the PortConfig JSON fields the kind consumes, the
	// machine-readable half of the lbicd request schema docs.
	schema []string
	// name renders the display name (Key adds the -sqD suffix on top).
	name func(p PortConfig) string
	// parse inverts name: it receives the text after "token-".
	parse func(rest string) (PortConfig, bool)
	// validate checks kind-specific structural rules (the common checks run
	// first).
	validate func(p PortConfig) error
	// peak is the organization's maximum accesses per cycle.
	peak func(p PortConfig) int
	// build constructs the arbiter.
	build func(p PortConfig, lineSize int) (ports.Arbiter, error)
	// report flattens the kind-specific fields into a ReportPort.
	report func(p PortConfig, rp *ReportPort)
	// collect copies a finished bank-organized arbiter's kind-specific
	// stats into the Result and adds their histograms to its Metrics; nil
	// for kinds without any.
	collect func(a *ports.Banks, res *Result)
	// axis holds the kind's representative configurations for the
	// experiments port axes; empty keeps the kind out of the default axes.
	axis []PortConfig
	// samples extends axis with grammar-corner configurations for the
	// round-trip property tests.
	samples []PortConfig
}

var (
	portOrgs     = map[PortKind]*portOrg{}
	portOrgOrder []PortKind
)

// registerPortOrg installs one organization; duplicate kinds or tokens are
// programming errors.
func registerPortOrg(o portOrg) {
	if _, dup := portOrgs[o.kind]; dup {
		panic(fmt.Sprintf("lbic: port kind %d registered twice", int(o.kind)))
	}
	for _, prev := range portOrgOrder {
		if portOrgs[prev].token == o.token {
			panic(fmt.Sprintf("lbic: port token %q registered twice", o.token))
		}
	}
	entry := o
	portOrgs[o.kind] = &entry
	portOrgOrder = append(portOrgOrder, o.kind)
}

// portOrgFor looks up a kind's registry entry.
func portOrgFor(k PortKind) (*portOrg, bool) {
	o, ok := portOrgs[k]
	return o, ok
}

// portOrgByToken resolves a serialization token or alias.
func portOrgByToken(token string) (*portOrg, bool) {
	for _, k := range portOrgOrder {
		o := portOrgs[k]
		if o.token == token {
			return o, true
		}
		for _, a := range o.aliases {
			if a == token {
				return o, true
			}
		}
	}
	return nil, false
}

// portTokens lists the wire kinds' canonical tokens in registration order,
// for error messages.
func portTokens() []string {
	var out []string
	for _, k := range portOrgOrder {
		if o := portOrgs[k]; o.wire {
			out = append(out, o.token)
		}
	}
	return out
}

// PortNameExamples renders the ParsePortName grammar for error and usage
// text: one name per wire kind, in registration order, from the kind's own
// name rule applied to its first axis (else samples) configuration, then the
// kinds whose schema takes the -sqD queue-depth suffix.
func PortNameExamples() string {
	var names, sq []string
	for _, k := range portOrgOrder {
		o := portOrgs[k]
		if !o.wire {
			continue
		}
		example := o.axis
		if len(example) == 0 {
			example = o.samples
		}
		names = append(names, o.name(example[0]))
		if slices.Contains(o.schema, "store_queue_depth") {
			sq = append(sq, o.token)
		}
	}
	return fmt.Sprintf("%s; only %s names take an optional -sqD store-queue depth suffix",
		strings.Join(names, ", "), strings.Join(sq, ", "))
}

// PortOrgInfo describes one registered port organization, for tooling that
// enumerates the taxonomy, such as the benchmark under lbicbench/.
type PortOrgInfo struct {
	Kind PortKind
	// Token is the canonical serialization token (the Name/Key prefix).
	Token string
	// Display is the organization name used in the paper's tables.
	Display string
	// Schema lists the PortConfig JSON fields the kind consumes.
	Schema []string
	// Axis holds the kind's representative configurations for experiment
	// port axes (empty for kinds excluded from the default axes).
	Axis []PortConfig
	// Wire reports whether the kind serializes (custom ports do not).
	Wire bool
}

// PortOrganizations lists every registered port organization in registration
// order.
func PortOrganizations() []PortOrgInfo {
	out := make([]PortOrgInfo, 0, len(portOrgOrder))
	for _, k := range portOrgOrder {
		o := portOrgs[k]
		out = append(out, PortOrgInfo{
			Kind:    o.kind,
			Token:   o.token,
			Display: o.display,
			Schema:  append([]string(nil), o.schema...),
			Axis:    append([]PortConfig(nil), o.axis...),
			Wire:    o.wire,
		})
	}
	return out
}

// PortAxis returns the default port-organization axis for experiment
// sweeps: every registered kind's representative configurations, in
// registration order. Kinds without representatives
// (virtual multiporting, custom ports) contribute nothing.
func PortAxis() []PortConfig {
	var out []PortConfig
	for _, k := range portOrgOrder {
		out = append(out, portOrgs[k].axis...)
	}
	return out
}

// portSamples returns every registered kind's axis plus grammar-corner
// samples, the population of the serialization round-trip property tests.
func portSamples() []PortConfig {
	var out []PortConfig
	for _, k := range portOrgOrder {
		o := portOrgs[k]
		out = append(out, o.axis...)
		out = append(out, o.samples...)
	}
	return out
}

// --- shared grammar helpers ---

func parsePortInt(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// parsePortDims parses "MxN".
func parsePortDims(s string) (int, int, bool) {
	mTok, nTok, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, false
	}
	m, ok1 := parsePortInt(mTok)
	n, ok2 := parsePortInt(nTok)
	return m, n, ok1 && ok2
}

// widthOrg builds the entry shape shared by the pure width-parameterized
// kinds (ideal, replicated, virtual).
func widthOrg(kind PortKind, token, display string, factory func(width int) (ports.Arbiter, error)) portOrg {
	return portOrg{
		kind:    kind,
		token:   token,
		display: display,
		wire:    true,
		schema:  []string{"kind", "width"},
		name: func(p PortConfig) string {
			return fmt.Sprintf("%s-%d", token, p.Width)
		},
		parse: func(rest string) (PortConfig, bool) {
			w, ok := parsePortInt(rest)
			return PortConfig{Kind: kind, Width: w}, ok
		},
		validate: func(p PortConfig) error {
			if p.Width < 1 {
				return fmt.Errorf("lbic: %s port width %d < 1", p.Kind, p.Width)
			}
			return nil
		},
		peak: func(p PortConfig) int { return p.Width },
		build: func(p PortConfig, _ int) (ports.Arbiter, error) {
			return factory(p.Width)
		},
		report: func(p PortConfig, rp *ReportPort) { rp.Width = p.Width },
	}
}

func init() {
	ideal := widthOrg(Ideal, "true", "True", func(w int) (ports.Arbiter, error) { return ports.NewIdeal(w) })
	ideal.aliases = []string{"ideal"}
	ideal.axis = []PortConfig{IdealPort(1), IdealPort(4)}
	registerPortOrg(ideal)

	repl := widthOrg(Replicated, "repl", "Repl", func(w int) (ports.Arbiter, error) { return ports.NewReplicated(w) })
	repl.axis = []PortConfig{ReplicatedPort(4)}
	registerPortOrg(repl)

	bankedXor := BankedPort(4)
	bankedXor.Selector = XorFold
	registerPortOrg(portOrg{
		kind:    Banked,
		token:   "bank",
		display: "Bank",
		wire:    true,
		schema:  []string{"kind", "banks", "selector"},
		name: func(p PortConfig) string {
			if p.Selector != BitSelect {
				return fmt.Sprintf("bank-%d-%s", p.Banks, p.Selector)
			}
			return fmt.Sprintf("bank-%d", p.Banks)
		},
		parse: func(rest string) (PortConfig, bool) {
			p := PortConfig{Kind: Banked}
			numTok, selTok, hasSel := strings.Cut(rest, "-")
			b, ok := parsePortInt(numTok)
			if !ok {
				return p, false
			}
			p.Banks = b
			if hasSel {
				sel, err := ports.ParseSelectorKind(selTok)
				if err != nil {
					return p, false
				}
				p.Selector = sel
			}
			return p, true
		},
		validate: powerOfTwoBanks,
		peak:     func(p PortConfig) int { return p.Banks },
		build: func(p PortConfig, lineSize int) (ports.Arbiter, error) {
			return ports.NewBankedSelector(p.Banks, lineSize, p.Selector)
		},
		report: func(p PortConfig, rp *ReportPort) {
			rp.Banks = p.Banks
			rp.Selector = p.Selector.String()
		},
		collect: func(a *ports.Banks, res *Result) {
			res.BankConflicts = a.Stats().Conflicts
			addHistogram(res.Metrics, "port.bank_same_line_conflicts",
				"stalled requests whose line was already open in the bank (§4 same-line share)",
				"bank", a.BankSameLineConflicts())
		},
		axis: []PortConfig{BankedPort(4), bankedXor},
	})

	greedy := LBICPort(4, 2)
	greedy.Greedy = true
	registerPortOrg(portOrg{
		kind:    LBIC,
		token:   "lbic",
		display: "LBIC",
		wire:    true,
		schema:  []string{"kind", "banks", "line_ports", "greedy", "store_queue_depth"},
		name: func(p PortConfig) string {
			if p.Greedy {
				return fmt.Sprintf("lbic-%dx%d-greedy", p.Banks, p.LinePorts)
			}
			return fmt.Sprintf("lbic-%dx%d", p.Banks, p.LinePorts)
		},
		parse: func(rest string) (PortConfig, bool) {
			p := PortConfig{Kind: LBIC}
			dims, greedyTok, hasGreedy := strings.Cut(rest, "-")
			if hasGreedy {
				if greedyTok != "greedy" {
					return p, false
				}
				p.Greedy = true
			}
			var ok bool
			p.Banks, p.LinePorts, ok = parsePortDims(dims)
			return p, ok
		},
		validate: func(p PortConfig) error {
			if !powerOfTwo(p.Banks) {
				return fmt.Errorf("lbic: LBIC bank count %d is not a positive power of two", p.Banks)
			}
			if p.LinePorts < 1 {
				return fmt.Errorf("lbic: LBIC line ports %d < 1", p.LinePorts)
			}
			return nil
		},
		peak: func(p PortConfig) int { return p.Banks * p.LinePorts },
		build: func(p PortConfig, lineSize int) (ports.Arbiter, error) {
			policy := ports.PolicyLeading
			if p.Greedy {
				policy = ports.PolicyGreedy
			}
			return ports.NewLBIC(ports.LBICConfig{
				Banks:           p.Banks,
				LinePorts:       p.LinePorts,
				LineSize:        lineSize,
				StoreQueueDepth: p.StoreQueueDepth,
				Policy:          policy,
			})
		},
		report: func(p PortConfig, rp *ReportPort) {
			rp.Banks = p.Banks
			rp.LinePorts = p.LinePorts
			rp.Greedy = p.Greedy
		},
		collect: func(a *ports.Banks, res *Result) {
			ls := a.Stats().LBICStats
			res.LBIC = &ls
			addHistogram(res.Metrics, "lbic.combine_width",
				"bank-cycles by number of same-line accesses served (width 1 = no combining)",
				"width", a.CombineWidths())
		},
		axis:    []PortConfig{LBICPort(4, 2), LBICPort(4, 4)},
		samples: []PortConfig{greedy},
	})

	virt := widthOrg(VirtualMultiport, "virt", "Virt",
		func(w int) (ports.Arbiter, error) { return ports.NewVirtual(w) })
	virt.samples = []PortConfig{VirtualPort(2)}
	registerPortOrg(virt)

	sq4 := BankedSQPort(8)
	sq4.StoreQueueDepth = 4
	registerPortOrg(portOrg{
		kind:    BankedStoreQueue,
		token:   "banksq",
		display: "BankSQ",
		wire:    true,
		schema:  []string{"kind", "banks", "store_queue_depth"},
		name: func(p PortConfig) string {
			return fmt.Sprintf("banksq-%d", p.Banks)
		},
		parse: func(rest string) (PortConfig, bool) {
			b, ok := parsePortInt(rest)
			return PortConfig{Kind: BankedStoreQueue, Banks: b}, ok
		},
		validate: powerOfTwoBanks,
		// One array access plus one store-queue acceptance per bank.
		peak: func(p PortConfig) int { return 2 * p.Banks },
		build: func(p PortConfig, lineSize int) (ports.Arbiter, error) {
			return ports.NewBankedSQ(p.Banks, lineSize, p.StoreQueueDepth)
		},
		report: func(p PortConfig, rp *ReportPort) {
			rp.Banks = p.Banks
			rp.Selector = p.Selector.String()
		},
		samples: []PortConfig{BankedSQPort(4), sq4},
	})

	registerPortOrg(portOrg{
		kind:    MultiPortedBanks,
		token:   "mpb",
		display: "MPB",
		wire:    true,
		schema:  []string{"kind", "banks", "width"},
		name: func(p PortConfig) string {
			return fmt.Sprintf("mpb-%dx%d", p.Banks, p.Width)
		},
		parse: func(rest string) (PortConfig, bool) {
			m, w, ok := parsePortDims(rest)
			return PortConfig{Kind: MultiPortedBanks, Banks: m, Width: w}, ok
		},
		validate: func(p PortConfig) error {
			if !powerOfTwo(p.Banks) {
				return fmt.Errorf("lbic: MPB bank count %d is not a positive power of two", p.Banks)
			}
			if p.Width < 1 {
				return fmt.Errorf("lbic: MPB ports per bank %d < 1", p.Width)
			}
			return nil
		},
		peak: func(p PortConfig) int { return p.Banks * p.Width },
		build: func(p PortConfig, lineSize int) (ports.Arbiter, error) {
			return ports.NewMultiPortedBanks(p.Banks, p.Width, lineSize)
		},
		report: func(p PortConfig, rp *ReportPort) {
			rp.Banks = p.Banks
			rp.Width = p.Width
		},
		samples: []PortConfig{MultiPortedBanksPort(2, 2)},
	})

	codedSpec := CodedPort(4, 1)
	codedSpec.Speculative = true
	codedComposed := CodedPort(4, 2)
	codedComposed.LinePorts = 2
	codedBoth := CodedPort(8, 2)
	codedBoth.LinePorts = 4
	codedBoth.Speculative = true
	registerPortOrg(portOrg{
		kind:    Coded,
		token:   "coded",
		display: "Coded",
		wire:    true,
		schema:  []string{"kind", "banks", "parity_banks", "line_ports", "speculative", "store_queue_depth"},
		name: func(p PortConfig) string {
			name := fmt.Sprintf("coded-%dx%d", p.Banks, p.ParityBanks)
			if p.LinePorts >= 2 {
				name += fmt.Sprintf("-lb%d", p.LinePorts)
			}
			if p.Speculative {
				name += "-spec"
			}
			return name
		},
		parse: func(rest string) (PortConfig, bool) {
			p := PortConfig{Kind: Coded}
			parts := strings.Split(rest, "-")
			var ok bool
			if p.Banks, p.ParityBanks, ok = parsePortDims(parts[0]); !ok {
				return p, false
			}
			for _, tok := range parts[1:] {
				switch {
				case tok == "spec" && !p.Speculative:
					p.Speculative = true
				case strings.HasPrefix(tok, "lb") && p.LinePorts == 0 && !p.Speculative:
					if p.LinePorts, ok = parsePortInt(tok[2:]); !ok {
						return p, false
					}
				default:
					return p, false
				}
			}
			return p, true
		},
		validate: func(p PortConfig) error {
			if !powerOfTwo(p.Banks) {
				return fmt.Errorf("lbic: coded bank count %d is not a positive power of two", p.Banks)
			}
			if p.ParityBanks < 1 {
				return fmt.Errorf("lbic: coded parity bank count %d < 1", p.ParityBanks)
			}
			if p.Banks < p.ParityBanks || p.Banks%p.ParityBanks != 0 {
				return fmt.Errorf("lbic: %d parity banks do not evenly divide %d data banks", p.ParityBanks, p.Banks)
			}
			if p.LinePorts == 1 || p.LinePorts < 0 {
				return fmt.Errorf("lbic: coded line ports %d (want 0 for no combining, or >= 2)", p.LinePorts)
			}
			return nil
		},
		peak: func(p PortConfig) int { return p.Banks*max(p.LinePorts, 1) + p.ParityBanks },
		build: func(p PortConfig, lineSize int) (ports.Arbiter, error) {
			return ports.NewCoded(ports.CodedConfig{
				Banks:            p.Banks,
				ParityBanks:      p.ParityBanks,
				LineSize:         lineSize,
				UpdateQueueDepth: p.StoreQueueDepth,
				LinePorts:        p.LinePorts,
				Speculative:      p.Speculative,
			})
		},
		report: func(p PortConfig, rp *ReportPort) {
			rp.Banks = p.Banks
			rp.ParityBanks = p.ParityBanks
			rp.LinePorts = p.LinePorts
			rp.Speculative = p.Speculative
		},
		collect: func(a *ports.Banks, res *Result) {
			cs := a.Stats().Coded()
			res.Coded = &cs
			h := addHistogram(res.Metrics, "coded.activity",
				"coded-banks events: reconstructed reads, retired code updates, update stalls, stale-code squashes, combined accesses",
				"", []uint64{cs.Reconstructions, cs.CodeUpdates, cs.UpdateStalls, cs.StaleCode + cs.Replays, cs.Combined})
			h.BucketNames = []string{"reconstructions", "code_updates", "update_stalls", "stale_code", "combined"}
		},
		axis:    []PortConfig{CodedPort(4, 1)},
		samples: []PortConfig{CodedPort(4, 2), codedSpec, codedComposed, codedBoth},
	})

	registerPortOrg(portOrg{
		kind:    customPortKind,
		token:   "custom",
		display: "Custom",
		wire:    false,
		schema:  []string{"kind", "label"},
		name: func(p PortConfig) string {
			if p.Label != "" {
				return "custom-" + p.Label
			}
			return "custom"
		},
		validate: func(p PortConfig) error {
			if p.custom == nil {
				return fmt.Errorf("lbic: custom port without a factory")
			}
			return nil
		},
		peak: func(PortConfig) int { return 0 },
		build: func(p PortConfig, lineSize int) (ports.Arbiter, error) {
			if p.custom == nil {
				return nil, fmt.Errorf("lbic: custom port without a factory")
			}
			return p.custom(lineSize)
		},
		report: func(p PortConfig, rp *ReportPort) { rp.Label = p.Label },
	})
}

// powerOfTwoBanks is the shared validator of the plain banked kinds.
func powerOfTwoBanks(p PortConfig) error {
	if !powerOfTwo(p.Banks) {
		return fmt.Errorf("lbic: %s bank count %d is not a positive power of two", p.Kind, p.Banks)
	}
	return nil
}

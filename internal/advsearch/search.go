// Package advsearch hunts for adversarial workloads: generator parameter
// settings that maximize same-bank conflict pressure (or minimize IPC) on a
// chosen cache port organization. It is a seeded mutation/hill-climbing
// loop over the internal/workload generator family — the catalog defaults
// seed a population, each round simulates every not-yet-scored candidate,
// the best survivors are perturbed field-by-field via the GenField
// descriptor table, and after a fixed number of rounds the full scored
// population is returned ranked. Everything is deterministic for a given
// Options: the same search finds the same winners on every machine, which
// is what lets discovered workloads become checked-in regression artifacts
// (testdata/adversarial).
package advsearch

import (
	"context"
	"fmt"
	"sort"

	"lbic"
	"lbic/internal/runner"
)

// Score is one candidate's measured behaviour on the target port
// organization, extracted from the run's lbic-run-report/v1 metrics.
type Score struct {
	// Conflicts is the total same-bank conflict count ("port.bank_conflicts").
	Conflicts uint64 `json:"conflicts"`
	// Accesses is the total granted bank accesses ("port.bank_accesses").
	Accesses uint64 `json:"accesses"`
	// ConflictRate is Conflicts/Accesses, the primary objective.
	ConflictRate float64 `json:"conflict_rate"`
	IPC          float64 `json:"ipc"`
	Cycles       uint64  `json:"cycles"`
}

// Candidate is one scored parameter setting.
type Candidate struct {
	Params lbic.GenParams `json:"params"`
	// Port is the organization the candidate was scored on when the search
	// roams the port axis (Options.SearchPorts); nil means the fixed
	// Options.Port.
	Port  *lbic.PortConfig `json:"port,omitempty"`
	Score Score            `json:"score"`
}

// key is the candidate's identity in the scored population.
func (c Candidate) key() string {
	if c.Port != nil {
		return c.Params.Key() + "@" + c.Port.Key()
	}
	return c.Params.Key()
}

// Fitness is the scalar the search maximizes: the conflict rate, or -IPC
// when the objective is minimizing IPC.
func (c Candidate) Fitness(minimizeIPC bool) float64 {
	if minimizeIPC {
		return -c.Score.IPC
	}
	return c.Score.ConflictRate
}

// Evaluator scores one candidate on one port organization. The default
// simulates the generator on the port; tests substitute cheap synthetic
// landscapes.
type Evaluator func(ctx context.Context, p lbic.GenParams, port lbic.PortConfig) (Score, error)

// Options configures a search. The zero value of every field takes the
// documented default.
type Options struct {
	// Port is the organization under attack (required).
	Port lbic.PortConfig
	// Insts is the per-candidate simulation budget (required).
	Insts uint64
	// Kinds restricts the searched generator kinds; empty means the whole
	// catalog.
	Kinds []string
	// Rounds is the number of mutation rounds after the seed evaluation
	// (default 4).
	Rounds int
	// Survivors is how many top candidates breed each round (default 3).
	Survivors int
	// MutantsPerSurvivor is the brood size (default 4).
	MutantsPerSurvivor int
	// Seed drives all mutation randomness (default 1).
	Seed uint64
	// Parallel bounds concurrently simulated candidates (default 1, which
	// is also the deterministic-log choice; scores are deterministic at any
	// parallelism).
	Parallel int
	// MinimizeIPC switches the objective from maximizing the conflict rate
	// to minimizing IPC.
	MinimizeIPC bool
	// SearchPorts extends the search space to the port-organization axis:
	// mutation may hop a candidate onto another registered organization, so
	// the search answers "which workload on which organization" instead of
	// attacking one fixed port. Port then only anchors the mutant broods.
	SearchPorts bool
	// PortAxis is the organization axis for SearchPorts; empty selects
	// lbic.PortAxis(), every registered kind's representatives.
	PortAxis []lbic.PortConfig
	// Evaluate overrides the simulation-backed evaluator (tests).
	Evaluate Evaluator
	// Log, when non-nil, receives one line per round.
	Log func(format string, args ...any)
}

func (opt *Options) fill() error {
	if opt.Insts == 0 && opt.Evaluate == nil {
		return fmt.Errorf("advsearch: Insts must be positive")
	}
	if len(opt.Kinds) == 0 {
		opt.Kinds = lbic.GeneratorKinds()
	}
	for _, k := range opt.Kinds {
		if len(lbic.GeneratorFields(k)) == 0 {
			return fmt.Errorf("advsearch: unknown generator kind %q", k)
		}
	}
	if opt.Rounds == 0 {
		opt.Rounds = 4
	}
	if opt.Survivors == 0 {
		opt.Survivors = 3
	}
	if opt.MutantsPerSurvivor == 0 {
		opt.MutantsPerSurvivor = 4
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Parallel == 0 {
		opt.Parallel = 1
	}
	if opt.SearchPorts && len(opt.PortAxis) == 0 {
		opt.PortAxis = lbic.PortAxis()
	}
	if opt.Evaluate == nil {
		insts := opt.Insts
		opt.Evaluate = func(ctx context.Context, p lbic.GenParams, port lbic.PortConfig) (Score, error) {
			cfg := lbic.DefaultConfig()
			cfg.Port = port
			cfg.MaxInsts = insts
			res, err := lbic.Simulate(ctx, lbic.GeneratorSource(p), cfg)
			if err != nil {
				return Score{}, err
			}
			return Score{
				Conflicts:    res.PortConflicts(),
				Accesses:     res.PortAccesses(),
				ConflictRate: res.PortConflictRate(),
				IPC:          res.IPC,
				Cycles:       res.Cycles,
			}, nil
		}
	}
	if opt.Log == nil {
		opt.Log = func(string, ...any) {}
	}
	return nil
}

// Search runs the hill-climbing loop and returns every evaluated candidate,
// best first. A candidate whose evaluation fails is dropped (its parameters
// are remembered so it is not retried); ctx cancellation returns the
// partial ranking with the context's error.
func Search(ctx context.Context, opt Options) ([]Candidate, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	rng := prng{s: opt.Seed*0x9E3779B97F4A7C15 + 1}

	scored := make(map[string]Candidate)
	attempted := make(map[string]bool)

	// Seed population: the catalog defaults of every searched kind, plus one
	// brood of mutants each so round 0 already explores. A port-axis search
	// seeds every kind's defaults on every organization.
	var pop []spec
	for _, kind := range opt.Kinds {
		base, err := lbic.DefaultGeneratorParams(kind)
		if err != nil {
			return nil, err
		}
		if opt.SearchPorts {
			for _, port := range opt.PortAxis {
				pop = append(pop, spec{params: base, port: port})
			}
		} else {
			pop = append(pop, spec{params: base, port: opt.Port})
		}
		for i := 0; i < opt.MutantsPerSurvivor; i++ {
			pop = append(pop, mutateSpec(&rng, &opt, spec{params: base, port: opt.Port}))
		}
	}

	for round := 0; round <= opt.Rounds; round++ {
		var fresh []spec
		for _, s := range pop {
			if k := s.key(opt.SearchPorts); !attempted[k] {
				attempted[k] = true
				fresh = append(fresh, s)
			}
		}
		if len(fresh) == 0 {
			break
		}
		cells := make([]runner.Cell[Score], len(fresh))
		for i, s := range fresh {
			s := s
			cells[i] = runner.Cell[Score]{
				Key: fmt.Sprintf("adv/%s/%s/i%d", s.params.Key(), s.port.Key(), opt.Insts),
				Run: func(ctx context.Context) (Score, error) { return opt.Evaluate(ctx, s.params, s.port) },
			}
		}
		out, err := runner.Run(ctx, cells, runner.Options{Jobs: opt.Parallel, KeepGoing: true})
		for i, r := range out.Results {
			if r.Err == nil {
				scored[fresh[i].key(opt.SearchPorts)] = fresh[i].candidate(opt.SearchPorts, r.Value)
			} else {
				opt.Log("advsearch: %s failed: %v", fresh[i].key(opt.SearchPorts), r.Err)
			}
		}
		if err != nil {
			return ranked(scored, opt.MinimizeIPC), err
		}

		top := ranked(scored, opt.MinimizeIPC)
		if len(top) > opt.Survivors {
			top = top[:opt.Survivors]
		}
		if len(top) > 0 {
			b := top[0]
			opt.Log("round %d: %d evaluated, best %s fitness %.4f (rate %.4f, ipc %.3f)",
				round, len(scored), b.key(), b.Fitness(opt.MinimizeIPC), b.Score.ConflictRate, b.Score.IPC)
		}
		pop = pop[:0]
		for _, c := range top {
			parent := spec{params: c.Params, port: opt.Port}
			if c.Port != nil {
				parent.port = *c.Port
			}
			for i := 0; i < opt.MutantsPerSurvivor; i++ {
				pop = append(pop, mutateSpec(&rng, &opt, parent))
			}
		}
	}
	return ranked(scored, opt.MinimizeIPC), nil
}

// spec is one point of the search space: a generator parameter setting and
// the organization it is scored on (fixed at Options.Port unless the search
// roams the port axis).
type spec struct {
	params lbic.GenParams
	port   lbic.PortConfig
}

// key is the point's identity for dedup; the port only distinguishes points
// when the search actually varies it.
func (s spec) key(searchPorts bool) string {
	if searchPorts {
		return s.params.Key() + "@" + s.port.Key()
	}
	return s.params.Key()
}

// candidate converts the scored point to its public form.
func (s spec) candidate(searchPorts bool, sc Score) Candidate {
	c := Candidate{Params: s.params, Score: sc}
	if searchPorts {
		port := s.port
		c.Port = &port
	}
	return c
}

// ranked sorts the scored population best-first, tie-breaking on the
// canonical key so the order is fully deterministic.
func ranked(scored map[string]Candidate, minimizeIPC bool) []Candidate {
	out := make([]Candidate, 0, len(scored))
	for _, c := range scored {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		fi, fj := out[i].Fitness(minimizeIPC), out[j].Fitness(minimizeIPC)
		if fi != fj {
			return fi > fj
		}
		return out[i].key() < out[j].key()
	})
	return out
}

// mutateSpec perturbs one search point: usually its generator parameters
// (see mutate), occasionally — when the search roams the port axis — hopping
// the same workload onto another registered organization. The port-hop draw
// is only taken under SearchPorts, so fixed-port searches consume the rng
// stream exactly as before and stay reproducible against minted artifacts.
func mutateSpec(rng *prng, opt *Options, s spec) spec {
	if opt.SearchPorts && len(opt.PortAxis) > 1 && rng.n(4) == 0 {
		s.port = opt.PortAxis[rng.n(len(opt.PortAxis))]
		return s
	}
	s.params = mutate(rng, s.params)
	return s
}

// mutate perturbs one or two fields of a resolved parameter set, snapping
// to each field's step and range; occasionally it reseeds the stream's
// randomness instead. Mutation never produces an invalid setting.
func mutate(rng *prng, p lbic.GenParams) lbic.GenParams {
	q, err := p.Resolve()
	if err != nil {
		// Unreachable for catalog-derived parents; fall back to defaults.
		q, _ = lbic.DefaultGeneratorParams(p.Kind)
	}
	fields := lbic.GeneratorFields(q.Kind)
	nMut := 1 + rng.n(2)
	for i := 0; i < nMut; i++ {
		if rng.n(8) == 0 {
			q.Seed = rng.next()%1_000_000 + 1
			continue
		}
		f := fields[rng.n(len(fields))]
		cur := f.Get(&q)
		var next int64
		switch rng.n(4) {
		case 0:
			next = cur * 2
		case 1:
			next = cur / 2
		case 2:
			next = cur + f.Step<<rng.n(5)
		default:
			next = cur - f.Step<<rng.n(5)
		}
		if next > f.Max {
			next = f.Max
		}
		if f.Step > 1 {
			next -= next % f.Step
		}
		if next < f.Min {
			next = f.Min
		}
		f.Set(&q, next)
	}
	return q
}

// prng is the same xorshift64* the generators use: deterministic and
// platform-independent.
type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *prng) n(n int) int { return int(r.next() % uint64(n)) }

package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lbic"
)

// simWindow is how long both clients stay on one build before the cycle
// moves to the other: short beside the host's speed phases, long beside a
// request.
const simWindow = time.Second

// simulateGen draws the served-simulate request sequence from a seed: 90%
// uniformly from the hot set, 10% a point never requested before. Clients
// share one generator, so the sequence of inputs is fixed by the seed
// whichever client takes each.
type simulateGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	kernels []string
	// ports draws each kernel's fresh ports: a point is new when its port
	// is new for its kernel.
	ports map[string]*portSampler
}

func newSimulateGen(seed int64) *simulateGen {
	rng := rand.New(rand.NewSource(seed))
	g := &simulateGen{
		rng:     rand.New(rand.NewSource(rng.Int63())),
		kernels: lbic.BenchmarkNames(),
		ports:   map[string]*portSampler{},
	}
	for _, k := range g.kernels {
		g.ports[k] = newPortSampler(rand.New(rand.NewSource(rng.Int63())), hotPorts...)
	}
	return g
}

func (g *simulateGen) next() (bench, port string, fresh bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	bench = g.kernels[g.rng.Intn(len(g.kernels))]
	if g.rng.Intn(10) != 0 {
		return bench, hotPorts[g.rng.Intn(len(hotPorts))], false, nil
	}
	port, err = g.ports[bench].next()
	return bench, port, true, err
}

// simOps is what a served-simulate loop observed.
type simOps struct {
	side              // every completed op
	hitLat, missLat   []float64
	attempted, failed int
	fresh             []sample // never-seen points requested, reports omitted
}

// merge adds another window's ops to s.
func (s *simOps) merge(o *simOps) {
	s.lat = append(s.lat, o.lat...)
	s.wall += o.wall
	s.hitLat = append(s.hitLat, o.hitLat...)
	s.missLat = append(s.missLat, o.missLat...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.fresh = append(s.fresh, o.fresh...)
}

// simulateClients is served-simulate's closed loop: two clients, each
// sending its next request when the previous reply arrives. hits and misses
// receive a seeded sample of the served reports for the output check.
func simulateClients(s *server, g *simulateGen, budget time.Duration, minOps int, hits, misses *reservoir) (*simOps, error) {
	var (
		mu   sync.Mutex
		res  simOps
		ferr error
		wg   sync.WaitGroup
	)
	l := newLoop(budget, minOps)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				more := ferr == nil && l.more(len(res.lat))
				mu.Unlock()
				if !more {
					return
				}
				bench, port, fresh, err := g.next()
				if err != nil {
					mu.Lock()
					ferr = err
					mu.Unlock()
					return
				}
				t0 := time.Now()
				rep, hit, err := s.simulate(bench, port, servedInsts)
				d := ms(time.Since(t0))
				mu.Lock()
				res.attempted++
				switch {
				case err != nil:
					res.failed++
				default:
					res.lat = append(res.lat, d)
					sm := sample{bench, port, rep}
					if hit {
						res.hitLat = append(res.hitLat, d)
						hits.offer(sm)
					} else {
						res.missLat = append(res.missLat, d)
						misses.offer(sm)
					}
					if fresh {
						res.fresh = append(res.fresh, sample{bench: bench, port: port})
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(l.start)
	return &res, ferr
}

// runServedSimulate is served-simulate: the two clients run in windows of
// simWindow, cycling program, reference, program.
func runServedSimulate(e *env, w *workload) (*result, error) {
	if e.trace {
		return simulateTraced(e, w)
	}
	d, err := startDaemons(e, false)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	// Both builds draw the same seeded request sequence.
	seed := e.rng.Int63()
	progGen, refGen := newSimulateGen(seed), newSimulateGen(seed)
	hits := &reservoir{rng: rand.New(rand.NewSource(e.rng.Int63())), k: 3}
	misses := &reservoir{rng: rand.New(rand.NewSource(e.rng.Int63())), k: 3}
	none := &reservoir{rng: rand.New(rand.NewSource(1))}
	var prog, ref simOps
	progOp := func() error {
		d.only(d.prog)
		ops, err := simulateClients(d.prog, progGen, simWindow, 0, hits, misses)
		if err != nil {
			return err
		}
		prog.merge(ops)
		return nil
	}
	refOp := func() error {
		d.only(d.ref)
		ops, err := simulateClients(d.ref, refGen, simWindow, 0, none, none)
		if err == nil && ops.failed > 0 {
			err = fmt.Errorf("%d of the reference's requests failed", ops.failed)
		}
		if err != nil {
			return err
		}
		ref.merge(ops)
		return nil
	}
	l := newLoop(e.seconds, e.minOps)
	for l.more(len(prog.lat)) {
		if err := cycle(progOp, refOp); err != nil {
			return nil, err
		}
	}
	r := &result{attempted: prog.attempted, failed: prog.failed}
	setupStat(r, w, d.progSetup, d.refSetup)
	opStats(r, w, prog.side, ref.side)
	if err := servedFinish(e, d, r, append(hits.items, misses.items...)); err != nil {
		return nil, err
	}
	r.note("%d of %d program ops were result-cache hits", len(prog.hitLat), len(prog.lat))
	r.note("a set-up is lbicd start to healthy, warmed with the hot set")
	return r, nil
}

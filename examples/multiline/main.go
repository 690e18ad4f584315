// Multiline explores one step beyond the paper using the library's custom
// arbiter extension point: an LBIC variant whose banks each hold TWO open
// line buffers instead of one, so a bank can serve combinable groups from
// two different lines in the same cycle (at the cost of a second buffer and
// a dual-ported array read — the same kind of cost/performance step the
// paper weighs between designs).
//
// On streams where two hot lines alternate within one bank — swim's
// same-bank different-line signature — a second buffer attacks exactly the
// B-diff-line conflicts the paper says combining cannot remove.
//
//	go run ./examples/multiline
package main

import (
	"context"
	"fmt"
	"log"

	"lbic"
)

// twoLineLBIC is a user-defined arbiter: M banks, each able to open up to
// two lines per cycle, with up to n accesses per opened line.
type twoLineLBIC struct {
	sel    interface{ BankOf(uint64) int }
	lineOf func(uint64) uint64
	banks  int
	n      int

	opened [][2]uint64
	counts [][2]int
	used   []int
}

func newTwoLineLBIC(banks, n, lineSize int) (*twoLineLBIC, error) {
	sel, err := lbic.NewBankSelector(banks, lineSize)
	if err != nil {
		return nil, err
	}
	return &twoLineLBIC{
		sel:    sel,
		lineOf: sel.LineOf,
		banks:  banks,
		n:      n,
		opened: make([][2]uint64, banks),
		counts: make([][2]int, banks),
		used:   make([]int, banks),
	}, nil
}

func (a *twoLineLBIC) Name() string   { return fmt.Sprintf("lbic2-%dx%d", a.banks, a.n) }
func (a *twoLineLBIC) PeakWidth() int { return a.banks * a.n * 2 }

func (a *twoLineLBIC) Grant(_ uint64, ready []lbic.Request, dst []int) []int {
	for b := 0; b < a.banks; b++ {
		a.used[b] = 0
		a.counts[b] = [2]int{}
	}
	for i := range ready {
		b := a.sel.BankOf(ready[i].Addr)
		line := a.lineOf(ready[i].Addr)
		granted := false
		for s := 0; s < a.used[b]; s++ {
			if a.opened[b][s] == line && a.counts[b][s] < a.n {
				a.counts[b][s]++
				granted = true
				break
			}
		}
		if !granted && a.used[b] < 2 {
			s := a.used[b]
			a.opened[b][s] = line
			a.counts[b][s] = 1
			a.used[b]++
			granted = true
		}
		if granted {
			dst = append(dst, i)
		}
	}
	return dst
}

func main() {
	fmt.Println("LBIC variant with two open lines per bank (custom arbiter):")
	fmt.Println()
	fmt.Printf("%-9s %10s %10s %10s %10s\n", "bench", "bank-4", "lbic-4x2", "lbic2-4x2", "true-8")
	for _, bench := range []string{"swim", "hydro2d", "li", "compress", "mgrid"} {
		prog, err := lbic.BuildBenchmark(bench)
		if err != nil {
			log.Fatal(err)
		}
		run := func(port lbic.PortConfig) float64 {
			cfg := lbic.DefaultConfig()
			cfg.Port = port
			cfg.MaxInsts = 300_000
			res, err := lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
			if err != nil {
				log.Fatal(err)
			}
			return res.IPC
		}
		custom := lbic.CustomPort("two-line-lbic", func(lineSize int) (lbic.Arbiter, error) {
			return newTwoLineLBIC(4, 2, lineSize)
		})
		fmt.Printf("%-9s %10.3f %10.3f %10.3f %10.3f\n", bench,
			run(lbic.BankedPort(4)),
			run(lbic.LBICPort(4, 2)),
			run(custom),
			run(lbic.IdealPort(8)))
	}
	fmt.Println()
	fmt.Println("The second line buffer attacks the same-bank different-line")
	fmt.Println("conflicts (swim's signature) that single-line combining cannot.")
}

package lbic_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lbic"
)

// panicArbiter blows up on its first Grant, standing in for a buggy
// user-supplied design.
type panicArbiter struct{}

func (panicArbiter) Name() string   { return "panic" }
func (panicArbiter) PeakWidth() int { return 1 }
func (panicArbiter) Grant(_ uint64, _ []lbic.Request, _ []int) []int {
	panic("arbiter bug: grant exploded")
}

// stuckArbiter never grants, so the pipeline starves at its first load.
type stuckArbiter struct{}

func (stuckArbiter) Name() string                                    { return "stuck" }
func (stuckArbiter) PeakWidth() int                                  { return 1 }
func (stuckArbiter) Grant(_ uint64, _ []lbic.Request, d []int) []int { return d }

func smallCfg(port lbic.PortConfig) lbic.Config {
	cfg := lbic.DefaultConfig()
	cfg.Port = port
	cfg.MaxInsts = 20_000
	return cfg
}

func TestSimulateRecoversArbiterPanic(t *testing.T) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	port := lbic.CustomPort("panic", func(int) (lbic.Arbiter, error) { return panicArbiter{}, nil })
	_, err = lbic.Simulate(context.Background(), lbic.ProgramSource(prog), smallCfg(port))
	if err == nil {
		t.Fatal("Simulate returned nil error for a panicking arbiter")
	}
	if !strings.Contains(err.Error(), "arbiter bug: grant exploded") {
		t.Errorf("error %q does not carry the panic value", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Errorf("error %q does not carry a stack trace", err)
	}
}

func TestSimulateReportsHangWithWatchdog(t *testing.T) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	port := lbic.CustomPort("stuck", func(int) (lbic.Arbiter, error) { return stuckArbiter{}, nil })
	cfg := smallCfg(port)
	cpuCfg := lbic.DefaultCPUConfig()
	cpuCfg.WatchdogCycles = 1000
	cfg.CPU = &cpuCfg
	_, err = lbic.Simulate(context.Background(), lbic.ProgramSource(prog), cfg)
	if err == nil {
		t.Fatal("Simulate returned nil error for a starved pipeline")
	}
	if !strings.Contains(err.Error(), "no forward progress") {
		t.Errorf("error %q is not a watchdog diagnostic", err)
	}
}

func TestSimulateContextDeadline(t *testing.T) {
	prog, err := lbic.BuildBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	port := lbic.CustomPort("stuck", func(int) (lbic.Arbiter, error) { return stuckArbiter{}, nil })
	cfg := smallCfg(port)
	cpuCfg := lbic.DefaultCPUConfig()
	cpuCfg.WatchdogCycles = -1 // watchdog off: the deadline is the only exit
	cfg.CPU = &cpuCfg
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = lbic.Simulate(ctx, lbic.ProgramSource(prog), cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Simulate = %v, want deadline exceeded", err)
	}
}

func TestGuardFaultIsError(t *testing.T) {
	// A null-pointer load (inside the vm guard region) must surface as a
	// "program faulted" error, not a process panic.
	b := lbic.NewBuilder("null-deref")
	b.Ld(lbic.R(1), lbic.R(0), 0x10)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = lbic.Simulate(context.Background(), lbic.ProgramSource(prog), lbic.DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "faulted") {
		t.Fatalf("Simulate = %v, want faulted error", err)
	}
}

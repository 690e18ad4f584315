package main

import (
	"slices"
	"testing"
)

func TestMakeRules(t *testing.T) {
	rules, err := makeRules("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"all", "check", "bench-ab", "doc-commands", "reproduce"} {
		if !rules[r] {
			t.Errorf("rule %q not found", r)
		}
	}
	// .PHONY, variable assignments and recipe lines are not rules.
	for _, r := range []string{".PHONY", "GO", "BASE", "ROUNDS", "$(GO)"} {
		if rules[r] {
			t.Errorf("%q taken for a rule", r)
		}
	}
}

func TestUnknownTargets(t *testing.T) {
	rules := map[string]bool{"all": true, "bench-ab": true, "fuzz": true}
	for line, want := range map[string][]string{
		"make fuzz":                                     nil,
		"go test ./...          # or: make all":         nil,
		"make bench-ab BASE=HEAD ROUNDS=10 | tee t.txt": nil,
		"make -j2 all gone # or: make bench":            {"gone", "bench"},
		"make bench          # regenerates":             {"bench"},
		"go run ./cmd/lbicsim -bench gcc":               nil,
	} {
		if got := unknownTargets(line, rules); !slices.Equal(got, want) {
			t.Errorf("%q: unknown targets %q, want %q", line, got, want)
		}
	}
}

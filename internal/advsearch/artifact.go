package advsearch

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lbic"
)

// MetaSchema identifies the .meta.json provenance record written next to
// minted traces.
const MetaSchema = "lbic-adversarial-meta/v1"

// SearchCoords pins the search invocation that discovered a workload, so
// the artifact can be re-derived from scratch.
type SearchCoords struct {
	Seed      uint64 `json:"seed"`
	Rounds    int    `json:"rounds"`
	Objective string `json:"objective"`
	Kinds     string `json:"kinds,omitempty"`
}

// Meta is the provenance record of one minted adversarial stream.
type Meta struct {
	Schema string `json:"schema"`
	// Name is the artifact base name; the stream inside the .lbictrace file
	// carries the generator parameter key instead.
	Name string `json:"name"`
	// Port is the organization the stream was optimized against.
	Port string `json:"port"`
	// Insts is the recording and replay budget.
	Insts uint64 `json:"insts"`
	// Params regenerates the stream; Score is its measured behaviour.
	Params lbic.GenParams `json:"params"`
	Score  Score          `json:"score"`
	// Search pins the coordinates that found it.
	Search SearchCoords `json:"search"`
}

// LoadMeta reads and validates one .meta.json file.
func LoadMeta(path string) (Meta, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return Meta{}, fmt.Errorf("%s: %w", path, err)
	}
	if m.Schema != MetaSchema {
		return Meta{}, fmt.Errorf("%s: schema %q, want %q", path, m.Schema, MetaSchema)
	}
	return m, nil
}

// Mint writes a discovered candidate as a regression artifact triple under
// dir: <base>.lbictrace (the serialized lbic-trace-stream/v1 recording at
// insts instructions), <base>.report.json (the byte-exact
// lbic-run-report/v1 of replaying that stream on port), and
// <base>.meta.json (provenance). The report is produced by replaying the
// serialized trace — exactly what the regression test and `lbicsim
// -trace-in` do — so the stored bytes are reproducible from the stored
// stream alone.
func Mint(dir, base string, port lbic.PortConfig, insts uint64, win Candidate, coords SearchCoords) (Meta, error) {
	if win.Port != nil {
		// A port-axis search records which organization the candidate beat;
		// the artifact replays against that one, not the search anchor.
		port = *win.Port
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Meta{}, err
	}
	rt, err := lbic.RecordGeneratorTrace(win.Params, insts)
	if err != nil {
		return Meta{}, err
	}
	f, err := os.Create(filepath.Join(dir, base+".lbictrace"))
	if err != nil {
		return Meta{}, err
	}
	if err := lbic.WriteTraceStream(f, rt); err != nil {
		f.Close()
		return Meta{}, err
	}
	if err := f.Close(); err != nil {
		return Meta{}, err
	}

	cfg := lbic.DefaultConfig()
	cfg.Port = port
	cfg.MaxInsts = 0 // whole trace
	res, err := lbic.Simulate(context.Background(), lbic.TraceSource(rt), cfg)
	if err != nil {
		return Meta{}, err
	}
	rf, err := os.Create(filepath.Join(dir, base+".report.json"))
	if err != nil {
		return Meta{}, err
	}
	if err := lbic.NewReport(res).WriteJSON(rf); err != nil {
		rf.Close()
		return Meta{}, err
	}
	if err := rf.Close(); err != nil {
		return Meta{}, err
	}

	m := Meta{
		Schema: MetaSchema,
		Name:   base,
		Port:   port.Key(),
		Insts:  insts,
		Params: win.Params,
		Score:  win.Score,
		Search: coords,
	}
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Meta{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".meta.json"), append(enc, '\n'), 0o644); err != nil {
		return Meta{}, err
	}
	return m, nil
}

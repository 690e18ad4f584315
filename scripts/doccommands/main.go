// Command doccommands runs every command line the documentation shows, so a
// renamed flag or a deleted command fails CI rather than a reader. From the
// fenced code blocks of README.md, EXPERIMENTS.md, ISA.md and the verify
// skill it collects each line that runs a repository binary (`go run
// ./cmd/X` or `/tmp/bin/X`, with `\` continuations joined) and runs them in
// document order under `bash -o pipefail`, in one scratch directory with
// examples/ and testdata/ linked in:
//
//   - the binaries are built once, into the scratch directory, and every
//     /tmp/ path on a line is moved into it, so nothing lands in the tree;
//   - -insts is capped at a small budget, and added to commands that take
//     it, except -trace-in replays, whose trace bounds the run;
//   - a line must exit 0, unless it is marked `# exits 1`: then it must exit
//     1, and keeps its own budget, since its failure may depend on it (a
//     -timeout run);
//   - lines that need a running lbicd (lbicd, lbicctl, curl) are printed as
//     skipped.
//
// Run it from the repository root:
//
//	go run ./scripts/doccommands   # make doc-commands
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var docs = []string{"README.md", "EXPERIMENTS.md", "ISA.md", ".claude/skills/verify/SKILL.md"}

var (
	runsBinary  = regexp.MustCompile(`go run \./cmd/[a-z]|/tmp/bin/[a-z]`)
	needsServer = regexp.MustCompile(`\b(lbicd|lbicctl|curl)\b`)
	failing     = regexp.MustCompile(`#\s*exits 1\b`)
	instsFlag   = regexp.MustCompile(`-insts[ =](\S+)`)
)

const (
	// budget caps every -insts, keeping the whole run to seconds.
	budget = 5000
	// lineTimeout bounds each line's wall clock, so a hang fails the run.
	lineTimeout = 3 * time.Minute
)

func main() {
	failed, err := runDocs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccommands:", err)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runDocs runs every collected line and returns how many failed.
func runDocs() (failed int, err error) {
	scratch, err := os.MkdirTemp("", "doccommands-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)
	if err := setup(scratch); err != nil {
		return 0, err
	}
	takesInsts, err := probeInsts(filepath.Join(scratch, "bin"))
	if err != nil {
		return 0, err
	}
	var ran, skipped int
	for _, doc := range docs {
		lines, err := commandLines(doc)
		if err != nil {
			return 0, err
		}
		for _, line := range lines {
			if needsServer.MatchString(line) {
				fmt.Printf("skip  %s: %s (needs a running lbicd)\n", doc, line)
				skipped++
				continue
			}
			want := 0
			if failing.MatchString(line) {
				want = 1
			}
			cmd := rewrite(line, scratch, takesInsts, want == 0)
			start := time.Now()
			out, got := run(cmd, scratch)
			ran++
			if got != want {
				failed++
				fmt.Printf("FAIL  %s: %s\n      ran: %s\n      exit %d, want %d\n%s\n", doc, line, cmd, got, want, indent(out))
				continue
			}
			fmt.Printf("ok    %s: %s (%.1fs)\n", doc, line, time.Since(start).Seconds())
		}
	}
	fmt.Printf("%d ran, %d failed, %d skipped\n", ran, failed, skipped)
	return failed, nil
}

// setup builds the binaries into scratch/bin and links the inputs the
// documented lines read.
func setup(scratch string) error {
	build := exec.Command("go", "build", "-o", filepath.Join(scratch, "bin")+string(filepath.Separator),
		"./cmd/...", "./scripts/reportdiff")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building the binaries: %w", err)
	}
	for _, dir := range []string{"examples", "testdata"} {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		if err := os.Symlink(abs, filepath.Join(scratch, dir)); err != nil {
			return err
		}
	}
	return nil
}

// probeInsts reports which built binaries take an -insts flag.
func probeInsts(bin string) (map[string]bool, error) {
	entries, err := os.ReadDir(bin)
	if err != nil {
		return nil, err
	}
	takes := map[string]bool{}
	for _, e := range entries {
		// -h exits 0 or 2 depending on the command; only the usage matters.
		out, _ := exec.Command(filepath.Join(bin, e.Name()), "-h").CombinedOutput()
		takes[e.Name()] = strings.Contains(string(out), "\n  -insts ")
	}
	return takes, nil
}

// commandLines returns the lines of doc's fenced code blocks that run a
// repository binary, with continuations joined.
func commandLines(doc string) ([]string, error) {
	f, err := os.Open(doc)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	fenced := false
	pending := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		text := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			fenced = !fenced
			pending = ""
			continue
		}
		if !fenced {
			continue
		}
		if cont, ok := strings.CutSuffix(strings.TrimRight(text, " "), `\`); ok {
			pending += strings.TrimSpace(cont) + " "
			continue
		}
		line := pending + strings.TrimSpace(text)
		pending = ""
		if runsBinary.MatchString(line) {
			lines = append(lines, line)
		}
	}
	return lines, sc.Err()
}

// rewrite points line at the scratch directory's binaries and paths and, when
// capInsts is set, bounds every budget-taking command's -insts.
func rewrite(line, scratch string, takesInsts map[string]bool, capInsts bool) string {
	line = strings.ReplaceAll(line, "go run ./cmd/", "/tmp/bin/")
	line = strings.ReplaceAll(line, "/tmp/", scratch+"/")
	if !capInsts {
		return line
	}
	bin := scratch + "/bin/"
	var b strings.Builder
	for {
		i := strings.Index(line, bin)
		if i < 0 {
			b.WriteString(line)
			return b.String()
		}
		name := line[i+len(bin):]
		if j := strings.IndexAny(name, " \t|;&>"); j >= 0 {
			name = name[:j]
		}
		// The command's arguments run to the next pipe, list, redirect or
		// comment.
		args := line[i+len(bin)+len(name):]
		if j := strings.IndexAny(args, "|;&>#"); j >= 0 {
			args = args[:j]
		}
		rest := line[i+len(bin)+len(name)+len(args):]
		if takesInsts[name] {
			args = capArgs(args)
		}
		b.WriteString(line[:i] + bin + name + args)
		line = rest
	}
}

// capArgs lowers an explicit -insts to budget, or adds one unless the
// command replays a trace.
func capArgs(args string) string {
	if m := instsFlag.FindStringSubmatchIndex(args); m != nil {
		n, err := strconv.ParseUint(args[m[2]:m[3]], 0, 64)
		if err != nil || n <= budget {
			return args
		}
		return args[:m[2]] + strconv.Itoa(budget) + args[m[3]:]
	}
	if strings.Contains(args, "-trace-in") {
		return args
	}
	return fmt.Sprintf(" -insts %d%s", budget, args)
}

// run executes cmd under bash in dir and returns its combined output and exit
// status (-1 when it could not run or hit the timeout). A timeout kills the
// line's whole process group, so every stage of a pipeline stops with it.
func run(cmd, dir string) (string, int) {
	ctx, cancel := context.WithTimeout(context.Background(), lineTimeout)
	defer cancel()
	c := exec.CommandContext(ctx, "bash", "-o", "pipefail", "-c", cmd)
	c.Dir = dir
	c.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c.Cancel = func() error { return syscall.Kill(-c.Process.Pid, syscall.SIGKILL) }
	out, err := c.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if exit, ok := err.(*exec.ExitError); ok && ctx.Err() == nil {
		return string(out), exit.ExitCode()
	}
	return fmt.Sprintf("%s\n%v", out, err), -1
}

// indent returns the last lines of out, indented under a failure.
func indent(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return "      | " + strings.Join(lines, "\n      | ")
}

// Command doccommands runs every command line the documentation shows, so a
// renamed flag or a deleted command fails CI rather than a reader. From the
// fenced code blocks of README.md, EXPERIMENTS.md, ISA.md and the verify
// skill it collects each line that runs a repository binary (`go run
// ./cmd/X` or `/tmp/bin/X`, with `\` continuations joined) and runs them in
// document order under `bash -o pipefail`, in one scratch directory with
// examples/ and testdata/ linked in. A `make TARGET` line is not run, but its
// target must be a rule of the Makefile.
//
//   - the binaries are built once, into the scratch directory, and every
//     /tmp/ path on a line is moved into it, so nothing lands in the tree;
//   - -insts is capped at a small budget wherever a line sets it, and added
//     to commands whose -h lists it, except -trace-in replays, whose trace
//     bounds the run;
//   - a line must exit 0, unless it is marked `# exits 1`: then it must exit
//     1, and keeps its own budget, since its failure may depend on it (a
//     -timeout run);
//   - an lbicd line starts a server with that line's own flags, its -addr
//     and -debug-addr moved to free loopback ports, and waits for /healthz;
//     each lbicctl line runs against the server its document last started,
//     whatever -server it names. The server is stopped with SIGTERM before
//     the document's next lbicd line or at its end, and must exit 0 having
//     logged msg=bye; a line that fails or times out leaves no lbicd behind.
//
// Run it from the repository root:
//
//	go run ./scripts/doccommands   # make doc-commands
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
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
	startsLbicd = regexp.MustCompile(`^(go run \./cmd/|/tmp/bin/)lbicd\s`)
	runsLbicctl = regexp.MustCompile(`/bin/lbicctl \S+`)
	failing     = regexp.MustCompile(`#\s*exits 1\b`)
	instsFlag   = regexp.MustCompile(`-insts[ =](\S+)`)
	addrFlag    = regexp.MustCompile(`\s-addr[ =]\S+`)
	debugFlag   = regexp.MustCompile(`\s-debug-addr[ =]\S+`)
	serverFlag  = regexp.MustCompile(`\s-server[ =]\S+`)
	background  = regexp.MustCompile(`\s*&\s*(#.*)?$`)
	makeCall    = regexp.MustCompile(`\bmake((?:\s+[^\s|;&#>]+)+)`)
	makeRule    = regexp.MustCompile(`^([A-Za-z0-9][\w.-]*(?:[ \t]+[\w.-]+)*)[ \t]*:(?:[^=]|$)`)
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
	rules, err := makeRules("Makefile")
	if err != nil {
		return 0, err
	}
	var ran int
	for _, doc := range docs {
		r, f, err := runDoc(doc, scratch, takesInsts, rules)
		ran, failed = ran+r, failed+f
		if err != nil {
			return failed, err
		}
	}
	fmt.Printf("%d ran, %d failed\n", ran, failed)
	return failed, nil
}

// runDoc runs one document's lines in order and returns how many ran and
// how many failed, counting each make target that is not a rule as a
// failure. Its lbicd, if it started one, is stopped on return.
func runDoc(doc, scratch string, takesInsts, rules map[string]bool) (ran, failed int, err error) {
	lines, err := fencedLines(doc)
	if err != nil {
		return 0, 0, err
	}
	var srv *lbicd
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	stop := func() {
		if err := srv.stop(); err != nil {
			failed++
			fmt.Printf("FAIL  %s: %s\n      %v\n", doc, srv.line, err)
		}
		srv = nil
	}
	for _, line := range lines {
		for _, target := range unknownTargets(line, rules) {
			failed++
			fmt.Printf("FAIL  %s: %s\n      the Makefile has no rule %q\n", doc, line, target)
		}
		if !runsBinary.MatchString(line) {
			continue
		}
		want := 0
		if failing.MatchString(line) {
			want = 1
		}
		cmd := rewrite(line, scratch, takesInsts, want == 0)
		start := time.Now()
		ran++
		if startsLbicd.MatchString(line) {
			if srv != nil {
				stop()
			}
			s, err := startLbicd(line, cmd, scratch)
			if err != nil {
				failed++
				fmt.Printf("FAIL  %s: %s\n      %v\n", doc, line, err)
				continue
			}
			srv = s
			fmt.Printf("ok    %s: %s (serving at %s, %.1fs)\n", doc, line, srv.url, time.Since(start).Seconds())
			continue
		}
		if runsLbicctl.MatchString(cmd) {
			if srv == nil {
				failed++
				fmt.Printf("FAIL  %s: %s\n      no lbicd of %s is running\n", doc, line, doc)
				continue
			}
			cmd = srv.point(cmd)
		}
		out, got := run(cmd, scratch)
		if got != want {
			failed++
			fmt.Printf("FAIL  %s: %s\n      ran: %s\n      exit %d, want %d\n%s\n", doc, line, cmd, got, want, indent(out))
			continue
		}
		fmt.Printf("ok    %s: %s (%.1fs)\n", doc, line, time.Since(start).Seconds())
	}
	if srv != nil {
		stop()
	}
	return ran, failed, nil
}

// lbicd is a documented server line running in the background.
type lbicd struct {
	line string // the documented line
	url  string // its base URL
	log  string // its stderr and stdout
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// startLbicd starts cmd, the rewritten form of the documented lbicd line,
// in the background with its -addr and -debug-addr moved to free loopback
// ports, and waits until it answers /healthz.
func startLbicd(line, cmd, scratch string) (*lbicd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd = background.ReplaceAllString(cmd, "")
	if addrFlag.MatchString(cmd) {
		cmd = addrFlag.ReplaceAllLiteralString(cmd, " -addr "+addr)
	} else {
		cmd += " -addr " + addr
	}
	if debugFlag.MatchString(cmd) {
		debug, err := freeAddr()
		if err != nil {
			return nil, err
		}
		cmd = debugFlag.ReplaceAllLiteralString(cmd, " -debug-addr "+debug)
	}
	log, err := os.CreateTemp(scratch, "lbicd-*.log")
	if err != nil {
		return nil, err
	}
	defer log.Close()
	s := &lbicd{line: line, url: "http://" + addr, log: log.Name(), done: make(chan struct{})}
	// exec makes the server the process itself, so the signals below reach
	// it; it stays in this process group, so a terminal's ^C drains it too.
	s.cmd = exec.Command("bash", "-c", "exec "+cmd)
	s.cmd.Dir = scratch
	s.cmd.Stdout, s.cmd.Stderr = log, log
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.cmd.Wait(); close(s.done) }()
	deadline := time.After(lineTimeout)
	probe := http.Client{Timeout: time.Second}
	for {
		if resp, err := probe.Get(s.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			out, _ := os.ReadFile(s.log)
			return nil, fmt.Errorf("ran: %s\n      exited %d before answering /healthz\n%s",
				cmd, s.cmd.ProcessState.ExitCode(), indent(string(out)))
		case <-deadline:
			s.kill()
			return nil, fmt.Errorf("ran: %s\n      no answer on /healthz within %v", cmd, lineTimeout)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// freeAddr returns a loopback address no listener holds at the moment.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// point aims an lbicctl command at the server: its -server flag, or the
// default one when it names none.
func (s *lbicd) point(cmd string) string {
	if serverFlag.MatchString(cmd) {
		return serverFlag.ReplaceAllLiteralString(cmd, " -server "+s.url)
	}
	loc := runsLbicctl.FindStringIndex(cmd)
	return cmd[:loc[1]] + " -server " + s.url + cmd[loc[1]:]
}

// stop drains the server with SIGTERM: it must exit 0 having logged
// msg=bye.
func (s *lbicd) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(lineTimeout):
		s.kill()
		return fmt.Errorf("still running %v after SIGTERM", lineTimeout)
	}
	out, _ := os.ReadFile(s.log)
	if code := s.cmd.ProcessState.ExitCode(); code != 0 || !bytes.Contains(out, []byte("msg=bye")) {
		return fmt.Errorf("exit %d on SIGTERM, want 0 after msg=bye\n%s", code, indent(string(out)))
	}
	return nil
}

// kill ends the server at once and waits for it to exit.
func (s *lbicd) kill() {
	s.cmd.Process.Kill()
	<-s.done
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

// fencedLines returns the lines of doc's fenced code blocks, with
// continuations joined.
func fencedLines(doc string) ([]string, error) {
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
		lines = append(lines, pending+strings.TrimSpace(text))
		pending = ""
	}
	return lines, sc.Err()
}

// makeRules returns the names of the rules of the Makefile at path.
func makeRules(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rules := map[string]bool{}
	for _, l := range strings.Split(string(data), "\n") {
		if m := makeRule.FindStringSubmatch(l); m != nil {
			for _, name := range strings.Fields(m[1]) {
				rules[name] = true
			}
		}
	}
	return rules, nil
}

// unknownTargets returns the targets line asks make for that are not rules:
// every word after `make` up to a pipe, list, redirect or comment, except
// flags and variable assignments.
func unknownTargets(line string, rules map[string]bool) []string {
	var unknown []string
	for _, m := range makeCall.FindAllStringSubmatch(line, -1) {
		for _, w := range strings.Fields(m[1]) {
			if !strings.HasPrefix(w, "-") && !strings.Contains(w, "=") && !rules[w] {
				unknown = append(unknown, w)
			}
		}
	}
	return unknown
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
		args = capArgs(args, takesInsts[name])
		b.WriteString(line[:i] + bin + name + args)
		line = rest
	}
}

// capArgs lowers an explicit -insts to budget, whatever the command (lbicctl
// top takes one that lbicctl -h does not list). Otherwise, when add is set,
// it adds one unless the command replays a trace.
func capArgs(args string, add bool) string {
	if m := instsFlag.FindStringSubmatchIndex(args); m != nil {
		n, err := strconv.ParseUint(args[m[2]:m[3]], 0, 64)
		if err != nil || n <= budget {
			return args
		}
		return args[:m[2]] + strconv.Itoa(budget) + args[m[3]:]
	}
	if !add || strings.Contains(args, "-trace-in") {
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

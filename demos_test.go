//go:build !race

package trafficscope

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/fleet"
	"trafficscope/internal/loadgen"
	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// The repository's demos, declared as cells: a trace, the servers to
// start, the clients to run against them and the exit code each process
// must return. TestDemos builds the real binaries and runs every cell
// (`make demos` runs it verbosely). Servers listen on 127.0.0.1:0 and
// their bound address is read from the readiness line they print, so no
// cell owns a port or sleeps to wait for one.
//
// In a process's args $dir is the cell's scratch directory, $trace the
// generated trace, $policy the committed demo SLO policy, $0, $1, ... the
// base URL of the cell's n-th server and $target that of its last one.
type demoProc struct {
	tool string
	args []string
	exit int
	says string // a client's output must contain this, when set
}

type demoCell struct {
	name        string
	scale, seed string
	// servers start in order and are SIGINTed in reverse order once the
	// clients are through: a front tier drains before what it fronts.
	servers []demoProc
	clients []demoProc
	check   func(t *testing.T, r *demoRun)
}

var demoCells = []demoCell{
	// One edge under the demo policy, gated both ways: tsgate on the live
	// server's own /slo verdicts, tsgate on the run summary. A local
	// policy applies to a run summary only.
	{
		name: "edge-slo", scale: "0.01", seed: "42",
		servers: []demoProc{{tool: "tsserve", args: []string{"-addr", "127.0.0.1:0", "-capacity", "2147483648",
			"-slo-policy", "$policy", "-trace-buffer", "256", "-trace-sample", "64", "-manifest", "$dir/serve-manifest.json"}}},
		clients: []demoProc{
			{tool: "tsload", args: []string{"-in", "$trace", "-target", "$target", "-workers", "16",
				"-summary", "$dir/load-summary.json", "-manifest", "$dir/load-manifest.json"}},
			{tool: "tsgate", args: []string{"-target", "$target"}},
			{tool: "tsgate", args: []string{"-run", "$dir/load-summary.json", "-policy", "$policy"}},
			{tool: "tsgate", args: []string{"-target", "$target", "-policy", "$policy"}, exit: 2, says: "-run"},
		},
		check: func(t *testing.T, r *demoRun) {
			served, loaded := r.manifest("serve-manifest.json"), r.manifest("load-manifest.json")
			var summary struct {
				Requests, Errors int64
			}
			r.readJSON("load-summary.json", &summary)
			if served["requests"] != r.records || loaded["requests"] != r.records || float64(summary.Requests) != r.records {
				t.Errorf("requests: edge %v, tsload %v, summary %d; want %v", served["requests"], loaded["requests"], summary.Requests, r.records)
			}
			if loaded["errors"] != 0.0 || summary.Errors != 0 {
				t.Errorf("tsload errors: manifest %v, summary %d", loaded["errors"], summary.Errors)
			}
			if served["hit_ratio"] != loaded["hit_ratio"] {
				t.Errorf("hit ratio: edge %v, tsload %v", served["hit_ratio"], loaded["hit_ratio"])
			}
		},
	},
	// The gate can fail: a 16 MiB cache forces a miss storm and every
	// miss pays 25 ms of origin latency, so the demo policy's hit-ratio
	// floor and p99 target both breach and tsgate must exit exactly 1.
	{
		name: "edge-breach", scale: "0.005", seed: "43",
		servers: []demoProc{{tool: "tsserve", args: []string{"-addr", "127.0.0.1:0", "-capacity", "16777216",
			"-origin-latency", "25ms", "-slo-policy", "$policy"}}},
		clients: []demoProc{
			{tool: "tsload", args: []string{"-in", "$trace", "-target", "$target", "-workers", "64"}},
			{tool: "tsgate", args: []string{"-target", "$target"}, exit: 1},
		},
	},
	// The whole fleet in one process behind its shield, gated through the
	// collector's merged /slo as if it were one tsserve.
	{
		name: "fleet-shield", scale: "0.01", seed: "42",
		servers: []demoProc{{tool: "tscluster", args: []string{"-router-addr", "127.0.0.1:0", "-shield",
			"-dcs", "north-america,south-america;europe;asia", "-capacity", "2147483648", "-slo-policy", "$policy"}}},
		clients: []demoProc{
			{tool: "tsload", args: []string{"-in", "$trace", "-target", "$target", "-workers", "16", "-manifest", "$dir/load-manifest.json"}},
			{tool: "tsgate", args: []string{"-target", "$target"}},
		},
		check: func(t *testing.T, r *demoRun) {
			if fills := r.checkExitTotals(t); fills == 0 {
				t.Error("no miss was filled through the shield")
			}
		},
	},
	// The same tiers as separate processes wired by hand: the one
	// multi-process smoke of tsserve -dc and tsrouter -backend.
	{
		name: "fleet-by-hand", scale: "0.005", seed: "42",
		servers: []demoProc{
			{tool: "tsserve", args: []string{"-addr", "127.0.0.1:0", "-dc", "north-america,south-america", "-capacity", "2147483648", "-slo-policy", "$policy"}},
			{tool: "tsserve", args: []string{"-addr", "127.0.0.1:0", "-dc", "europe,asia", "-capacity", "2147483648", "-slo-policy", "$policy"}},
			{tool: "tsrouter", args: []string{"-addr", "127.0.0.1:0", "-backend", "north-america,south-america=$0", "-backend", "europe,asia=$1",
				"-manifest", "$dir/router-manifest.json"}},
		},
		clients: []demoProc{
			{tool: "tsload", args: []string{"-in", "$trace", "-target", "$target", "-workers", "16", "-manifest", "$dir/load-manifest.json"}},
			{tool: "tsgate", args: []string{"-target", "$target"}},
		},
		check: func(t *testing.T, r *demoRun) {
			r.checkExitTotals(t)
			if routed := r.manifest("router-manifest.json"); routed["requests"] != r.records || routed["unreachable"] != nil {
				t.Errorf("router manifest: %v requests, unreachable %v; want %v, none", routed["requests"], routed["unreachable"], r.records)
			}
		},
	},
	// README's quickstart: the file tsgen wrote, replayed by tsreport,
	// reports the week tsreport generates itself, and reads the file once
	// for both passes.
	{
		name: "report-file", scale: "0.005", seed: "42",
		clients: []demoProc{
			{tool: "tsreport", args: []string{"-in", "$trace", "-replay", "-summary", "-manifest", "$dir/file-manifest.json"}},
			{tool: "tsreport", args: []string{"-scale", "0.005", "-summary", "-manifest", "$dir/week-manifest.json"}},
		},
		check: func(t *testing.T, r *demoRun) {
			file, week := r.manifest("file-manifest.json"), r.manifest("week-manifest.json")
			if file["records"] != r.records || week["records"] != r.records || file["cdn_requests"] != week["cdn_requests"] {
				t.Errorf("records: file %v, generated %v, trace %v; CDN requests: file %v, generated %v",
					file["records"], week["records"], r.records, file["cdn_requests"], week["cdn_requests"])
			}
			var m struct {
				Metrics struct{ Counters map[string]int64 }
			}
			r.readJSON("file-manifest.json", &m)
			fi, err := os.Stat(filepath.Join(r.dir, "trace.tsb"))
			if err != nil {
				t.Fatal(err)
			}
			if read := m.Metrics.Counters["trace_read_bytes_total"]; read != fi.Size() {
				t.Errorf("tsreport read %d bytes of a %d-byte trace", read, fi.Size())
			}
		},
	},
}

// tools holds the cmd/* binaries, built once for every test that runs
// them; TestMain removes the directory.
var tools struct {
	once sync.Once
	dir  string
	err  error
}

// buildTools builds every cmd/* binary and ./benchmark on first use and
// returns their directory.
func buildTools(t *testing.T) string {
	t.Helper()
	tools.once.Do(func() {
		if tools.dir, tools.err = os.MkdirTemp("", "trafficscope-tools-"); tools.err != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", tools.dir+string(filepath.Separator), "./cmd/...", "./benchmark").CombinedOutput()
		if err != nil {
			tools.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if tools.err != nil {
		t.Fatal(tools.err)
	}
	return tools.dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tools.dir != "" {
		os.RemoveAll(tools.dir)
	}
	os.Exit(code)
}

func TestDemos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries, replays four traces over loopback and reports a fifth")
	}
	bin := buildTools(t)
	policy, err := filepath.Abs("policies/demo.slo")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range demoCells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := &demoRun{t: t, bin: bin, dir: t.TempDir()}
			t.Cleanup(r.stopServers)
			r.vars = []string{"$dir", r.dir, "$policy", policy, "$trace", filepath.Join(r.dir, "trace.tsb")}
			r.client(demoProc{tool: "tsgen", args: []string{"-scale", c.scale, "-seed", c.seed, "-out", "$trace", "-manifest", "$dir/gen-manifest.json"}})
			r.records, _ = r.manifest("gen-manifest.json")["records"].(float64)
			if r.records == 0 {
				t.Fatal("tsgen wrote no records")
			}
			for i, s := range c.servers {
				url := r.start(s)
				r.vars = append(r.vars, "$"+strconv.Itoa(i), url)
			}
			if len(r.servers) > 0 {
				r.vars = append(r.vars, "$target", r.servers[len(r.servers)-1].url)
			}
			for _, cl := range c.clients {
				r.client(cl)
			}
			r.getEndpoints()
			r.stopServers()
			if c.check != nil && !t.Failed() {
				c.check(t, r)
			}
		})
	}
}

// TestUsageNamesRegisteredFlags: every -flag a command's package doc
// names in its Usage block is one the binary registers, as its -h lists
// them, and every -flag in a code span of README.md or DESIGN.md is one
// some cmd/* binary or ./benchmark registers, or a go tool flag. A
// removed or renamed flag cannot linger in the docs.
func TestUsageNamesRegisteredFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries")
	}
	bin := buildTools(t)
	helpFlags := func(tool string) map[string]bool {
		out, _ := exec.Command(filepath.Join(bin, tool), "-h").CombinedOutput()
		registered := map[string]bool{}
		for _, m := range helpFlag.FindAllStringSubmatch(string(out), -1) {
			registered[m[1]] = true
		}
		return registered
	}
	// The go test flags the docs cite beside the tools' own.
	anyTool := map[string]bool{"race": true, "cpu": true}
	for name := range helpFlags("benchmark") {
		anyTool[name] = true
	}
	cmds, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(cmds) == 0 {
		t.Fatalf("no commands found (%v)", err)
	}
	for _, path := range cmds {
		tool := filepath.Base(filepath.Dir(path))
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		registered := helpFlags(tool)
		for name := range registered {
			anyTool[name] = true
		}
		for _, name := range usageFlags(f.Doc.Text()) {
			if !registered[name] {
				t.Errorf("%s: the Usage block names -%s, which %s -h does not list", path, name, tool)
			}
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range codeSpanFlags(string(text)) {
			if !anyTool[name] {
				t.Errorf("%s names -%s in a code span; no cmd/* binary, ./benchmark or go tool flag has it", doc, name)
			}
		}
	}
}

// TestDocsNameRegisteredFamilies: every metric family a code span of
// README.md or DESIGN.md names is one that some serving tier registers,
// built in-process: an edge with its CDN model, a router, a shield and a
// tsload run against the edge. In a span, * stands for any run of name
// characters (so a span ending in * names a prefix), {a,b} spells two
// names, and a trailing label block such as {dc} is not part of the
// name. A removed family cannot linger in the docs.
func TestDocsNameRegisteredFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := edge.New(edge.Config{CDN: cdn.New(cdn.Config{Metrics: reg}), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	backends := []*fleet.Backend{fleet.NewBackend("edge", ts.URL, timeutil.AllRegions()...)}
	if _, err := fleet.NewRouter(fleet.RouterConfig{Backends: backends, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	fleet.NewShield(fleet.ShieldConfig{Backends: backends, Metrics: reg})
	rec := &trace.Record{Timestamp: time.Date(2016, 4, 12, 0, 0, 0, 0, time.UTC), Publisher: "V-1",
		ObjectID: 1, FileType: "jpg", ObjectSize: 1024, Region: timeutil.RegionEurope}
	if _, err := loadgen.Run(context.Background(), loadgen.Config{Target: ts.URL, Workers: 1, Metrics: reg},
		trace.NewSliceReader([]*trace.Record{rec})); err != nil {
		t.Fatal(err)
	}

	var families []string
	add := func(name string) {
		family, _, _ := strings.Cut(name, "{")
		families = append(families, family)
	}
	snap := reg.Snapshot()
	for name := range snap.Counters {
		add(name)
	}
	for name := range snap.Gauges {
		add(name)
	}
	for name := range snap.Histograms {
		add(name)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(text)) {
			if !metricSpan.MatchString(span) {
				continue
			}
			for _, name := range familyPatterns(span) {
				if !slices.ContainsFunc(families, name.MatchString) {
					t.Errorf("%s names metric family %s in the code span `%s`; no serving tier registers it", doc, name, span)
				}
			}
		}
	}
}

// metricSpan is a code span that names a serving tier's metric family.
var metricSpan = regexp.MustCompile(`^(edge|cdn|fleet|loadgen|ts_slo)_[a-z0-9_*{},="A-Z]*$`)

// familyPatterns compiles a family span into the regexps registered
// family names must match, one per name it spells: its trailing label
// block dropped, {a,b} expanded into a name each, * any run of name
// characters.
func familyPatterns(span string) []*regexp.Regexp {
	if i := strings.LastIndexByte(span, '{'); i > 0 && strings.HasSuffix(span, "}") {
		if labels := span[i:]; !strings.Contains(labels, ",") || strings.Contains(labels, "=") {
			span = span[:i]
		}
	}
	if i := strings.IndexByte(span, '{'); i >= 0 {
		if j := strings.IndexByte(span[i:], '}'); j > 0 {
			var out []*regexp.Regexp
			for _, alt := range strings.Split(span[i+1:i+j], ",") {
				out = append(out, familyPatterns(span[:i]+alt+span[i+j+1:])...)
			}
			return out
		}
	}
	glob := strings.ReplaceAll(regexp.QuoteMeta(span), `\*`, "[a-z0-9_]*")
	return []*regexp.Regexp{regexp.MustCompile("^" + glob + "$")}
}

var (
	usageFlag = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	helpFlag  = regexp.MustCompile(`(?m)^  -([a-zA-Z0-9-]+)`)
	codeSpan  = regexp.MustCompile("`([^`]+)`")
)

// codeSpans returns a Markdown text's inline code spans, outside fenced
// blocks.
func codeSpans(text string) []string {
	var spans []string
	for i, part := range strings.Split(text, "```") {
		if i%2 == 1 {
			continue // a fenced block
		}
		for _, span := range codeSpan.FindAllStringSubmatch(part, -1) {
			spans = append(spans, span[1])
		}
	}
	return spans
}

// codeSpanFlags returns the flag names in a Markdown text's inline code
// spans. A flag starts a span or follows a blank or '[', so a hyphenated
// word is not one.
func codeSpanFlags(text string) []string {
	var names []string
	for _, span := range codeSpans(text) {
		for _, m := range usageFlag.FindAllStringSubmatch(span, -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// usageFlags returns the flag names in a package doc's Usage block: the
// indented lines after the paragraph that opens with "Usage".
func usageFlags(doc string) []string {
	var names []string
	inUsage := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "Usage"):
			inUsage = true
		case inUsage && strings.HasPrefix(line, "\t"):
			for _, m := range usageFlag.FindAllStringSubmatch(line, -1) {
				names = append(names, m[1])
			}
		case inUsage && line != "":
			return names
		}
	}
	return names
}

// demoRun is one cell's execution state.
type demoRun struct {
	t       *testing.T
	bin     string
	dir     string
	vars    []string // strings.NewReplacer pairs
	records float64  // requests in the cell's trace (a JSON number, as the manifests carry it)
	servers []*demoServer
	stopped bool
}

type demoServer struct {
	demoProc
	cmd    *exec.Cmd
	url    string
	log    *serverLog
	exited chan struct{} // closed once cmd.Wait has returned
}

func (r *demoRun) command(p demoProc) *exec.Cmd {
	args := make([]string, len(p.args))
	for i, a := range p.args {
		args[i] = strings.NewReplacer(r.vars...).Replace(a)
	}
	return exec.Command(filepath.Join(r.bin, p.tool), args...)
}

// client runs p to completion and requires its declared exit code.
func (r *demoRun) client(p demoProc) {
	r.t.Helper()
	cmd := r.command(p)
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		r.t.Fatalf("%s: %v", p.tool, err)
	}
	if code := cmd.ProcessState.ExitCode(); code != p.exit {
		r.t.Fatalf("%s %v exited %d, want %d\n%s", p.tool, cmd.Args[1:], code, p.exit, out)
	}
	if !bytes.Contains(out, []byte(p.says)) {
		r.t.Fatalf("%s %v: output lacks %q\n%s", p.tool, cmd.Args[1:], p.says, out)
	}
}

// start launches a server and returns the base URL its readiness line
// announces ("tsserve: serving on http://127.0.0.1:43571 (...)").
func (r *demoRun) start(p demoProc) string {
	r.t.Helper()
	s := &demoServer{demoProc: p, cmd: r.command(p), log: &serverLog{ready: make(chan string, 1)}, exited: make(chan struct{})}
	s.cmd.Stderr = s.log
	if err := s.cmd.Start(); err != nil {
		r.t.Fatalf("%s: %v", p.tool, err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	r.servers = append(r.servers, s)
	select {
	case s.url = <-s.log.ready:
	case <-s.exited:
		r.t.Fatalf("%s exited before it was ready\n%s", p.tool, s.log)
	case <-time.After(30 * time.Second):
		r.t.Fatalf("%s printed no readiness line\n%s", p.tool, s.log)
	}
	return s.url
}

// getEndpoints GETs every path a server's readiness line names but the
// object prefix, and requires a 200: a ready line names only what the
// server serves.
func (r *demoRun) getEndpoints() {
	r.t.Helper()
	for _, s := range r.servers {
		m := endpointsList.FindStringSubmatch(s.log.String())
		if m == nil {
			r.t.Errorf("%s's readiness line names no endpoints\n%s", s.tool, s.log)
			continue
		}
		for _, path := range strings.Fields(m[1]) {
			if path == "/o/" {
				continue
			}
			resp, err := http.Get(s.url + path)
			if err != nil {
				r.t.Errorf("%s %s: %v", s.tool, path, err)
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				r.t.Errorf("%s names %s in its readiness line, which answers %d", s.tool, path, resp.StatusCode)
			}
		}
	}
}

var endpointsList = regexp.MustCompile(`endpoints: ([^)\n]*)\)`)

// stopServers SIGINTs the servers last-started first, one at a time, and
// requires each one's declared exit code. Only the first call acts.
func (r *demoRun) stopServers() {
	if r.stopped {
		return
	}
	r.stopped = true
	for i := len(r.servers) - 1; i >= 0; i-- {
		s := r.servers[i]
		s.cmd.Process.Signal(os.Interrupt)
		select {
		case <-s.exited:
		case <-time.After(30 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
			r.t.Errorf("%s did not exit on SIGINT", s.tool)
		}
		if code := s.cmd.ProcessState.ExitCode(); code != s.exit {
			r.t.Errorf("%s exited %d, want %d", s.tool, code, s.exit)
		}
		r.t.Logf("%s\n%s", s.tool, s.log)
	}
}

// serverLog collects a server's stderr and announces the URL of its
// readiness line.
type serverLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string // receives the base URL once
	found bool
}

var readyLine = regexp.MustCompile(` on (http://[^\s/]+) `)

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.found {
		if m := readyLine.FindSubmatch(l.buf.Bytes()); m != nil {
			l.found = true
			l.ready <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

func (r *demoRun) readJSON(name string, into any) {
	r.t.Helper()
	data, err := os.ReadFile(filepath.Join(r.dir, name))
	if err == nil {
		err = json.Unmarshal(data, into)
	}
	if err != nil {
		r.t.Fatalf("%s: %v", name, err)
	}
}

// manifest returns the tool-specific section of a run manifest.
func (r *demoRun) manifest(name string) map[string]any {
	r.t.Helper()
	var m struct {
		Extra map[string]any `json:"extra"`
	}
	r.readJSON(name, &m)
	return m.Extra
}

var (
	servedLine = regexp.MustCompile(` served (\d+) requests`)
	fillsLine  = regexp.MustCompile(` fills: (\d+) peer, (\d+) origin, (\d+) deduped`)
)

// checkExitTotals holds the servers' exit summaries to the exactness the
// ordered shutdown promises: the cluster line counts every request of the
// trace, which is also the sum of the edges' own lines, and the same for
// the fill counts. Edge lines are tsserve's and tscluster's "edge <name>"
// ones; the cluster's come from tsrouter or tscluster. Returns the
// cluster's fill count.
func (r *demoRun) checkExitTotals(t *testing.T) (fills int64) {
	t.Helper()
	var edges, cluster [4]int64 // requests, peer, origin, deduped
	for _, s := range r.servers {
		for _, line := range strings.Split(s.log.String(), "\n") {
			into := &cluster
			if strings.HasPrefix(line, "tsserve: ") || strings.HasPrefix(line, "tscluster: edge ") {
				into = &edges
			}
			if m := servedLine.FindStringSubmatch(line); m != nil {
				n, _ := strconv.ParseInt(m[1], 10, 64)
				into[0] += n
			}
			if m := fillsLine.FindStringSubmatch(line); m != nil {
				for i := 1; i <= 3; i++ {
					n, _ := strconv.ParseInt(m[i], 10, 64)
					into[i] += n
				}
			}
		}
	}
	if loaded := r.manifest("load-manifest.json"); loaded["requests"] != r.records || float64(cluster[0]) != r.records {
		t.Errorf("trace has %v requests, tsload sent %v, the cluster line counts %d", r.records, loaded["requests"], cluster[0])
	}
	if edges != cluster {
		t.Errorf("exit summaries (requests, peer, origin, deduped fills): edges sum to %v, cluster line says %v", edges, cluster)
	}
	return cluster[1] + cluster[2] + cluster[3]
}

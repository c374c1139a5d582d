// Command tsgate exits nonzero on an SLO breach — the CI/deploy gate of
// the serving stack. It judges either a live edge or cluster by the
// verdicts of its own /slo report, or a finished tsload run (the summary
// JSON written by tsload -summary) against a policy.
//
// Usage:
//
//	tsgate -target http://127.0.0.1:8080 [-min-requests 1] [-timeout 10s]
//	tsgate -run load-summary.json -policy <file|inline> [-min-requests 1]
//
// A live server is judged by its own policy over its gate window. A run
// summary is judged by -policy: its global-scope objectives are
// evaluated over the whole run as one window.
//
// -min-requests guards against vacuous passes: a gate window with fewer
// observed requests than the floor fails, because "no traffic" is not
// "compliant". Exit codes: 0 compliant, 1 breach (or too little
// traffic), 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"trafficscope/internal/loadgen"
	"trafficscope/internal/obs/slo"
)

func main() {
	breached, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsgate:", err)
		os.Exit(2)
	}
	if breached {
		os.Exit(1)
	}
}

func run() (breached bool, err error) {
	var (
		target     = flag.String("target", "", "edge or cluster base URL whose /slo verdicts to judge")
		runPath    = flag.String("run", "", "tsload summary JSON to judge (written by tsload -summary)")
		policySpec = flag.String("policy", "", "SLO policy for -run: a file path or inline text (see DESIGN.md §SLOs)")
		minReq     = flag.Int64("min-requests", 1, "fail unless the judged window saw at least this many requests")
		timeout    = flag.Duration("timeout", 10*time.Second, "HTTP timeout for -target mode")
	)
	flag.Parse()
	switch {
	case (*target == "") == (*runPath == ""):
		return false, fmt.Errorf("exactly one of -target or -run is required")
	case *target != "" && *policySpec != "":
		return false, fmt.Errorf("-policy applies to -run only: a live server is judged by its own policy (gate a tsload -summary with -run to apply a local one)")
	case *target != "":
		return gateLive(*target, *minReq, *timeout)
	case *policySpec == "":
		return false, fmt.Errorf("-run mode requires -policy")
	}
	policy, err := slo.LoadPolicy(*policySpec)
	if err != nil {
		return false, err
	}
	return gateRun(*runPath, policy, *minReq)
}

// gateRun judges a tsload run summary: the whole run is one window and
// the policy's global objectives are evaluated over it.
func gateRun(path string, policy slo.Policy, minReq int64) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var st loadgen.Stats
	if err := json.Unmarshal(data, &st); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	ws := st.SLOWindow()
	reps, breached := policy.EvaluateStats(ws, "")
	wn := slo.WindowName(time.Duration(ws.WindowSeconds * float64(time.Second)))
	fmt.Println(slo.VerdictTable(fmt.Sprintf("SLO gate: run %s (%d requests)", path, ws.Requests), reps, wn))
	return applyMinRequests(breached, ws.Requests, minReq), nil
}

// gateLive judges a live server's /slo report by its own verdicts.
func gateLive(target string, minReq int64, timeout time.Duration) (bool, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(target + "/slo")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("%s/slo: HTTP %d", target, resp.StatusCode)
	}
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return false, fmt.Errorf("%s/slo: %w", target, err)
	}

	gateName := slo.WindowName(time.Duration(rep.GateWindowSeconds * float64(time.Second)))
	var reps []slo.ObjectiveReport
	scopes := make([]string, 0, len(rep.Scopes))
	for name := range rep.Scopes {
		scopes = append(scopes, name)
	}
	sort.Strings(scopes)
	for _, name := range scopes {
		sr := rep.Scopes[name]
		if sr == nil {
			return false, fmt.Errorf("%s/slo: scope %q is null", target, name)
		}
		reps = append(reps, sr.Objectives...)
	}
	fmt.Println(slo.VerdictTable(fmt.Sprintf("SLO gate: %s (server policy, %s window)", target, gateName), reps, gateName))
	var requests int64
	if sr := rep.Scopes[slo.GlobalScope]; sr != nil {
		requests = sr.Windows[gateName].Requests
	}
	return applyMinRequests(rep.Breached, requests, minReq), nil
}

// applyMinRequests folds the traffic floor into the verdict, explaining
// itself on stdout when it changes the outcome.
func applyMinRequests(breached bool, requests, minReq int64) bool {
	if requests < minReq {
		fmt.Printf("FAIL: window saw %d requests, below -min-requests %d (no traffic is not compliance)\n", requests, minReq)
		return true
	}
	if breached {
		fmt.Println("FAIL: SLO breached")
	} else {
		fmt.Println("PASS: all objectives within budget")
	}
	return breached
}

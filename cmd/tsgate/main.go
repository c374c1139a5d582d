// Command tsgate evaluates an SLO policy and exits nonzero on breach —
// the CI/deploy gate of the serving stack. It judges either a live edge
// (fetching its /slo report) or a finished tsload run (reading the
// summary JSON written by tsload -summary).
//
// Usage:
//
//	tsgate -target http://127.0.0.1:8080 [-policy <file|inline>] [-min-requests 1]
//	tsgate -run load-summary.json -policy <file|inline> [-min-requests 1]
//
// Against a live edge, omitting -policy trusts the server's own policy
// verdicts; with -policy, the gate re-evaluates its objectives against
// the report's windows (the gate window must be one of the server's
// burn windows). Against a run summary, -policy is required and its
// global-scope objectives are evaluated over the whole run as one
// window.
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
		target     = flag.String("target", "", "edge base URL whose /slo endpoint to judge")
		runPath    = flag.String("run", "", "tsload summary JSON to judge (written by tsload -summary)")
		policySpec = flag.String("policy", "", "SLO policy: a file path or inline text (see DESIGN.md §SLOs)")
		minReq     = flag.Int64("min-requests", 1, "fail unless the judged window saw at least this many requests")
		timeout    = flag.Duration("timeout", 10*time.Second, "HTTP timeout for -target mode")
	)
	flag.Parse()
	switch {
	case (*target == "") == (*runPath == ""):
		return false, fmt.Errorf("exactly one of -target or -run is required")
	case *runPath != "" && *policySpec == "":
		return false, fmt.Errorf("-run mode requires -policy")
	}

	var policy slo.Policy
	havePolicy := *policySpec != ""
	if havePolicy {
		if policy, err = slo.LoadPolicy(*policySpec); err != nil {
			return false, err
		}
	}

	if *runPath != "" {
		return gateRun(*runPath, policy, *minReq)
	}
	return gateLive(*target, policy, havePolicy, *minReq, *timeout)
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

// gateLive judges a live edge's /slo report — by the server's own
// verdicts, or by re-evaluating a local policy against its windows.
func gateLive(target string, policy slo.Policy, havePolicy bool, minReq int64, timeout time.Duration) (bool, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(target + "/slo")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("%s/slo: HTTP %d (is the edge running with SLO tracking enabled?)", target, resp.StatusCode)
	}
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return false, fmt.Errorf("%s/slo: %w", target, err)
	}

	globalWindow := func(name string) (slo.WindowStats, bool) {
		sr := rep.Scopes[slo.GlobalScope]
		if sr == nil {
			return slo.WindowStats{}, false
		}
		ws, ok := sr.Windows[name]
		return ws, ok
	}

	if !havePolicy {
		// Trust the server's verdicts.
		gateName := slo.WindowName(time.Duration(rep.GateWindowSeconds * float64(time.Second)))
		var reps []slo.ObjectiveReport
		scopes := make([]string, 0, len(rep.Scopes))
		for name := range rep.Scopes {
			scopes = append(scopes, name)
		}
		sort.Strings(scopes)
		for _, name := range scopes {
			reps = append(reps, rep.Scopes[name].Objectives...)
		}
		fmt.Println(slo.VerdictTable(fmt.Sprintf("SLO gate: %s (server policy, %s window)", target, gateName), reps, gateName))
		var requests int64
		if ws, ok := globalWindow(gateName); ok {
			requests = ws.Requests
		}
		return applyMinRequests(rep.Breached, requests, minReq), nil
	}

	// Re-evaluate the local policy against the server's windows. The
	// policy's gate window must be one the server tracks.
	gateName := slo.WindowName(policy.Window)
	scopeSeen := map[string]bool{}
	var reps []slo.ObjectiveReport
	breached := false
	var globalRequests int64
	if ws, ok := globalWindow(gateName); ok {
		globalRequests = ws.Requests
	}
	for _, o := range policy.Objectives {
		if scopeSeen[o.Scope] {
			continue
		}
		scopeSeen[o.Scope] = true
		scopeKey := o.Scope
		if scopeKey == "" {
			scopeKey = slo.GlobalScope
		}
		sr := rep.Scopes[scopeKey]
		if sr == nil {
			return false, fmt.Errorf("edge does not track scope %q", scopeKey)
		}
		ws, ok := sr.Windows[gateName]
		if !ok {
			return false, fmt.Errorf("edge does not track a %s window (its windows: %v); align the policy's `window` with the server's", gateName, windowNames(sr.Windows))
		}
		r, b := policy.EvaluateStats(ws, o.Scope)
		reps = append(reps, r...)
		breached = breached || b
	}
	fmt.Println(slo.VerdictTable(fmt.Sprintf("SLO gate: %s (%s window)", target, gateName), reps, gateName))
	return applyMinRequests(breached, globalRequests, minReq), nil
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

func windowNames(m map[string]slo.WindowStats) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

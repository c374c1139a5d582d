package slo

import (
	"fmt"
	"sort"
	"time"
)

// Report merging: the fleet collector fetches one Report per backend and
// needs a single cluster-wide Report that tsgate can judge unchanged.
// Windows are summed scope by scope (latency histograms merged bucket by
// bucket via obs.HistogramValue.Merge), and every objective found in any
// backend report is re-evaluated against the merged windows — a burn
// rate recomputed over the cluster's pooled traffic, not an average of
// per-backend burn rates (averaging would let one overloaded DC hide
// behind three idle ones).
//
// The merge assumes the backends run the same policy geometry (same
// interval, gate window, burn windows, histogram bucket layout) — true
// for a fleet launched from one binary and policy file. Mismatched
// geometry or bucket layouts return an error rather than a silently
// skewed verdict. Each input report is a weakly consistent snapshot
// polled at a slightly different instant, so merged windows are
// approximate at the edges — the same contract as a live /metrics page.

// ParseKind inverts Kind.String ("latency", "error-rate", "hit-ratio").
func ParseKind(s string) (Kind, error) {
	switch s {
	case "latency":
		return KindLatency, nil
	case "error-rate":
		return KindErrorRate, nil
	case "hit-ratio":
		return KindHitRatio, nil
	default:
		return 0, fmt.Errorf("slo: unknown objective kind %q", s)
	}
}

// mergeWindow folds src into dst. A zero dst adopts src wholesale.
func mergeWindow(dst, src WindowStats) (WindowStats, error) {
	if src.WindowSeconds > dst.WindowSeconds {
		dst.WindowSeconds = src.WindowSeconds
	}
	dst.Requests += src.Requests
	dst.Errors += src.Errors
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	if err := dst.Latency.Merge(src.Latency); err != nil {
		return dst, err
	}
	return dst, nil
}

// MergeReports combines per-backend SLO reports into one cluster report:
// window traffic is summed per scope, and objectives are re-evaluated
// over the merged windows. The window geometry is taken from the first
// report and must match across all of them.
func MergeReports(reps ...Report) (Report, error) {
	if len(reps) == 0 {
		return Report{}, fmt.Errorf("slo: no reports to merge")
	}
	out := Report{
		IntervalSeconds:   reps[0].IntervalSeconds,
		GateWindowSeconds: reps[0].GateWindowSeconds,
		WindowsSeconds:    append([]float64(nil), reps[0].WindowsSeconds...),
		Scopes:            map[string]*ScopeReport{},
	}
	type objKey struct{ scope, name string }
	objs := map[objKey]Objective{}
	var objOrder []objKey

	for ri, r := range reps {
		if r.IntervalSeconds != out.IntervalSeconds || r.GateWindowSeconds != out.GateWindowSeconds {
			return out, fmt.Errorf("slo: report %d window geometry (%gs interval, %gs gate) differs from report 0 (%gs, %gs)",
				ri, r.IntervalSeconds, r.GateWindowSeconds, out.IntervalSeconds, out.GateWindowSeconds)
		}
		// Deterministic scope order regardless of map iteration.
		scopes := make([]string, 0, len(r.Scopes))
		for name := range r.Scopes {
			scopes = append(scopes, name)
		}
		sort.Strings(scopes)
		for _, scope := range scopes {
			sr := r.Scopes[scope]
			if sr == nil {
				return out, fmt.Errorf("slo: report %d scope %q is null", ri, scope)
			}
			dst := out.Scopes[scope]
			if dst == nil {
				dst = &ScopeReport{Windows: map[string]WindowStats{}}
				out.Scopes[scope] = dst
			}
			for wn, ws := range sr.Windows {
				merged, err := mergeWindow(dst.Windows[wn], ws)
				if err != nil {
					return out, fmt.Errorf("slo: scope %q window %q: %w", scope, wn, err)
				}
				dst.Windows[wn] = merged
			}
			for _, o := range sr.Objectives {
				k := objKey{scope: scope, name: o.Name}
				if _, ok := objs[k]; ok {
					continue
				}
				kind, err := ParseKind(o.Kind)
				if err != nil {
					return out, err
				}
				objs[k] = Objective{Kind: kind, Quantile: o.Quantile, Threshold: o.Threshold, Scope: o.Scope}
				objOrder = append(objOrder, k)
			}
		}
	}

	gateName := WindowName(time.Duration(out.GateWindowSeconds * float64(time.Second)))
	for _, k := range objOrder {
		sr := out.Scopes[k.scope]
		or := objs[k].report(sr.Windows, gateName)
		sr.Objectives = append(sr.Objectives, or)
		if or.Breached {
			sr.Breached = true
			out.Breached = true
		}
	}
	return out, nil
}

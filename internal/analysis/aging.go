package analysis

import (
	"math/bits"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// Aging accumulates Fig. 7: the fraction of a site's objects requested at
// each content age. An object's age-1 day is the day of its first
// observed request ("content injection"); the curve reports, for each age
// d, the fraction of objects that received at least one request on day
// first+d-1, among objects whose age-d day falls inside the trace.
// Bounded mode (Params.MemoryBudget > 0) keeps day bitmaps for a
// uniform object sample of at most the budget per site; the Curve and
// FracAliveAllWeek ratios are then unbiased
// estimates with relative standard error ~ 1/sqrt(budget).
type Aging struct {
	perSite[agingSite]
	budget int
}

type agingSite struct {
	keys boundedKeys // bounded mode: the site's object sample
	// days, by object slot, has bit d set when the object was requested
	// on day d of the week; every tracked object has at least one.
	days []uint8
}

const allWeek = 1<<7 - 1

// newAging creates an accumulator over the given trace week; budget 0
// is exact, a positive budget caps tracked objects per site.
func newAging(week timeutil.Week, budget int) *Aging {
	a := &Aging{budget: budget}
	a.week, a.needs = week, exactNeeds(budget, needObjects)
	return a
}

// Add folds one record; records outside the week are ignored.
func (a *Aging) Add(r *trace.Record) { a.add(r, a.resolve(r)) }

func (a *Aging) add(r *trace.Record, k *recKey) {
	if k.hour < 0 {
		return
	}
	st := a.site(k.site)
	slot := k.obj
	if a.budget > 0 {
		var ok bool
		if slot, ok = st.keys.admit(a.budget, r.ObjectID, k.objHash, st.compact); !ok {
			return
		}
	}
	*at(&st.days, slot) |= 1 << (k.hour / 24)
}

// absorb folds o's objects in, rm mapping o's slots to st's.
func (st *agingSite) absorb(o *agingSite, rm []uint32) {
	for slot, days := range o.days {
		if to := rm[slot]; days != 0 && to != noSlot {
			*at(&st.days, to) |= days
		}
	}
}

// compact renumbers the tracked objects after the sample shrank.
func (st *agingSite) compact(evict []uint32) {
	old := agingSite{days: st.days}
	st.days = nil
	st.absorb(&old, evict)
}

// Curve returns, for ages 1..7, the fraction of the site's objects
// requested at that age. Index 0 is age 1 (always 1.0 by construction:
// every object is requested on its first-seen day).
func (a *Aging) Curve(site string) [7]float64 {
	var curve [7]float64
	_, st := a.find(site)
	if st == nil {
		return curve
	}
	var requested, observable [7]int64
	for _, days := range st.days {
		if days == 0 {
			continue
		}
		first := bits.TrailingZeros8(days)
		for age := 0; first+age < 7; age++ { // later ages are not observable within the trace
			observable[age]++
			if days&(1<<(first+age)) != 0 {
				requested[age]++
			}
		}
	}
	for age := 0; age < 7; age++ {
		if observable[age] > 0 {
			curve[age] = float64(requested[age]) / float64(observable[age])
		}
	}
	return curve
}

// FracAliveAllWeek returns the fraction of the site's requested objects
// that received requests on every day of the week ("only about 10% of
// objects are requested throughout the trace duration of one week").
func (a *Aging) FracAliveAllWeek(site string) float64 {
	_, st := a.find(site)
	if st == nil {
		return 0
	}
	var alive, total int64
	for _, days := range st.days {
		if days == 0 {
			continue
		}
		total++
		if days == allWeek {
			alive++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(alive) / float64(total)
}

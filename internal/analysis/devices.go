package analysis

import (
	"trafficscope/internal/sketch"
	"trafficscope/internal/trace"
	"trafficscope/internal/useragent"
)

// DeviceMix accumulates Fig. 4: the per-site share of *users* per device
// category (desktop, Android, iOS, misc), classified from the User-Agent
// header. Bounded mode (Params.MemoryBudget > 0) replaces the per-device
// user sets with one HyperLogLog per site and device — fixed 16 KiB
// each, relative standard error ~0.8% on each device's user count, so
// the resulting shares are accurate to well under a percentage point.
type DeviceMix struct {
	perSite[devicesSite]
	bounded bool
	// agents lists the distinct User-Agent strings classified so far and
	// index finds them: agent strings repeat across records, and
	// useragent.Parse allocates a lowered copy per call. Capped at
	// maxAgents so a trace of unique agents cannot grow them without
	// limit.
	agents []classifiedAgent
	index  map[string]uint16
}

const maxAgents = 1 << 14

type classifiedAgent struct {
	ua  string
	dev uint8 // deviceIndex of the agent's device
}

type devicesSite struct {
	users []userDevices  // by user slot (exact mode)
	hlls  [4]*sketch.HLL // distinct users per device (bounded mode)
}

// userDevices is the set of devices one user was seen on, with the
// agent string last seen from the user: the next record nearly always
// carries the same string — the same pointer, in a generated or decoded
// trace — so comparing against it ends before hashing 100 bytes.
type userDevices struct {
	// agent is 1 + its index in agents; zero for none. Once a merge has
	// adopted the user's site it indexes the merged-from analyzer's
	// agents, which add's string comparison makes harmless.
	agent uint16
	seen  uint8 // bit deviceIndex(d) per device d
}

// deviceIndex maps a device to its position in useragent.AllDevices().
func deviceIndex(d useragent.Device) uint8 { return uint8(d - useragent.DeviceDesktop) }

// newDeviceMix creates an empty accumulator; budget 0 is exact, any
// positive budget switches distinct-user counting to HyperLogLog.
func newDeviceMix(budget int) *DeviceMix {
	d := &DeviceMix{bounded: budget > 0, index: map[string]uint16{}}
	d.needs = exactNeeds(budget, needUsers)
	return d
}

// classify returns the deviceIndex of one User-Agent string's device
// and, unless the memo is full, one more than the string's index in it.
func (d *DeviceMix) classify(ua string) (agent uint16, dev uint8) {
	if i, ok := d.index[ua]; ok {
		return i + 1, d.agents[i].dev
	}
	dev = deviceIndex(useragent.Parse(ua))
	if len(d.agents) == maxAgents {
		return 0, dev
	}
	d.index[ua] = uint16(len(d.agents))
	d.agents = append(d.agents, classifiedAgent{ua, dev})
	return uint16(len(d.agents)), dev
}

// Add folds one record.
func (d *DeviceMix) Add(r *trace.Record) { d.add(r, d.resolve(r)) }

func (d *DeviceMix) add(r *trace.Record, k *recKey) {
	st := d.site(k.site)
	if d.bounded {
		_, dev := d.classify(r.UserAgent)
		if st.hlls[dev] == nil {
			st.hlls[dev] = sketch.NewHLL(0)
		}
		st.hlls[dev].Add(k.userHash)
		return
	}
	u := at(&st.users, k.user)
	var dev uint8
	if u.agent != 0 && int(u.agent) <= len(d.agents) && d.agents[u.agent-1].ua == r.UserAgent {
		dev = d.agents[u.agent-1].dev
	} else {
		u.agent, dev = d.classify(r.UserAgent)
	}
	u.seen |= 1 << dev
}

// UserShare returns the fraction of the site's users on each device, in
// the order of useragent.AllDevices(). A user active on several devices
// counts toward each (rare with hashed per-device identities).
func (d *DeviceMix) UserShare(site string) [4]float64 {
	var out, counts [4]float64
	_, st := d.find(site)
	if st == nil {
		return out
	}
	for i, h := range st.hlls {
		if h != nil {
			counts[i] = h.Estimate()
		}
	}
	for _, u := range st.users {
		for i := range counts {
			if u.seen&(1<<i) != 0 {
				counts[i]++
			}
		}
	}
	total := counts[0] + counts[1] + counts[2] + counts[3]
	if total == 0 {
		return out
	}
	for i := range counts {
		out[i] = counts[i] / total
	}
	return out
}

// DesktopShare is shorthand for the desktop entry of UserShare.
func (d *DeviceMix) DesktopShare(site string) float64 { return d.UserShare(site)[0] }

package loadgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"repro/internal/fault"
)

// Profile sizes one load-generation run. The presets in Profiles are the
// named shapes the CLI exposes; every field can still be overridden.
type Profile struct {
	// Name labels the profile in reports and baselines.
	Name string
	// Devices is the managed-device count of the testbed (each device is
	// a naplet server plus an SNMP responder).
	Devices int
	// Interfaces per simulated device.
	Interfaces int
	// SeqTours is the number of sequential tours in the mixed phase.
	SeqTours int
	// TourHops is the stops per sequential tour.
	TourHops int
	// ParTours is the number of Par fan-out launches.
	ParTours int
	// ParWidth is the branch count per Par launch.
	ParWidth int
	// Chases is the number of mover/sender chase-storm pairs.
	Chases int
	// ChaseHops is the mover's tour length.
	ChaseHops int
	// MsgsPerChase is the messages each sender fires at its mover.
	MsgsPerChase int
	// SweepVars is the per-device variable count of the §6 MAN sweep.
	SweepVars int
	// SweepRounds repeats the sweep with device workloads ticked between
	// rounds.
	SweepRounds int
	// SweepWave bounds concurrent clones per broadcast-collect wave.
	SweepWave int
	// Window bounds concurrently in-flight tour launches.
	Window int
	// Timeout bounds the whole run.
	Timeout time.Duration
	// Overload switches the run to the overload-resilience scenario
	// (see overload.go): a single gated dock driven past capacity
	// instead of the testbed phases. All testbed fields are ignored.
	Overload *OverloadSpec
}

// Profiles are the named presets: "short" is the seconds-fast CI gate,
// "mixed" sustains thousands of concurrent tours, "man-sweep" is the
// enterprise-scale §6 scenario (thousands of simulated SNMP devices).
var Profiles = map[string]Profile{
	"short": {
		Name: "short", Devices: 12, Interfaces: 4,
		SeqTours: 24, TourHops: 4, ParTours: 4, ParWidth: 4,
		Chases: 2, ChaseHops: 3, MsgsPerChase: 8,
		SweepVars: 16, SweepRounds: 1, SweepWave: 6,
		Window: 32, Timeout: 2 * time.Minute,
	},
	"mixed": {
		Name: "mixed", Devices: 64, Interfaces: 4,
		SeqTours: 2000, TourHops: 5, ParTours: 64, ParWidth: 8,
		Chases: 16, ChaseHops: 4, MsgsPerChase: 32,
		SweepVars: 24, SweepRounds: 2, SweepWave: 16,
		Window: 192, Timeout: 10 * time.Minute,
	},
	"man-sweep": {
		Name: "man-sweep", Devices: 2000, Interfaces: 4,
		SeqTours: 256, TourHops: 4, ParTours: 16, ParWidth: 8,
		Chases: 4, ChaseHops: 3, MsgsPerChase: 16,
		SweepVars: 32, SweepRounds: 1, SweepWave: 100,
		Window: 96, Timeout: 15 * time.Minute,
	},
	"overload": {
		Name: "overload", Devices: 1, Timeout: time.Minute,
		Overload: &OverloadSpec{
			Workers:         4,
			Work:            5 * time.Millisecond,
			Multiple:        3,
			Phase:           1500 * time.Millisecond,
			MaxInFlight:     4,
			MaxQueue:        4,
			MaxWait:         250 * time.Millisecond,
			ControlInterval: 5 * time.Millisecond,
			GoodputFloor:    0.7,
			ControlP99:      100 * time.Millisecond,
		},
	},
}

// tourPoolMax caps the device subset tours route over. Tour traffic
// between arbitrary device pairs is pairwise-connected on TCP (one mux
// connection per pair), so an unbounded pool at 2000 devices would
// exhaust file descriptors; the sweep still covers every device.
const tourPoolMax = 64

// TourSpec is one mixed-phase launch: a sequential tour over Route, or a
// Par fan-out with one branch per Route entry. Routes are device INDICES,
// not names — the plan stays identical across fabrics (TCP resolves names
// at attach time), which is what makes the seed-replay digest meaningful.
type TourSpec struct {
	Par   bool
	Route []int
}

// ChaseSpec is one chase storm: a mover touring Route while a stationary
// sender fires Msgs uniquely-tagged messages at it.
type ChaseSpec struct {
	Route []int
	Msgs  int
}

// Plan is the deterministic schedule of one run: a pure function of
// (profile, seed, faults), never of wall-clock or fabric. Replaying a
// seed replays the plan bit for bit.
type Plan struct {
	Profile string
	Seed    int64
	// Pool is the tour device-pool size (indices 0..Pool-1).
	Pool   int
	Tours  []TourSpec
	Chases []ChaseSpec
	// Schedule is the scripted fault sequence (crash/restart,
	// partition/heal over logical device names), empty without faults.
	Schedule []fault.Step
}

// BuildPlan derives the run schedule from the seed.
func BuildPlan(p Profile, seed int64, faults bool) *Plan {
	rng := rand.New(rand.NewSource(seed))
	pool := p.Devices
	if pool > tourPoolMax {
		pool = tourPoolMax
	}
	plan := &Plan{Profile: p.Name, Seed: seed, Pool: pool}

	pick := func(n int) []int {
		if n > pool {
			n = pool
		}
		perm := rng.Perm(pool)
		route := make([]int, n)
		copy(route, perm[:n])
		return route
	}
	for i := 0; i < p.SeqTours; i++ {
		plan.Tours = append(plan.Tours, TourSpec{Route: pick(p.TourHops)})
	}
	for i := 0; i < p.ParTours; i++ {
		plan.Tours = append(plan.Tours, TourSpec{Par: true, Route: pick(p.ParWidth)})
	}
	for i := 0; i < p.Chases; i++ {
		plan.Chases = append(plan.Chases, ChaseSpec{Route: pick(p.ChaseHops), Msgs: p.MsgsPerChase})
	}

	if faults && pool >= 4 {
		// Scripted windows are triggered by the injector's global call
		// count; the thresholds sit well inside the mixed phase's
		// estimated call volume so every window opens AND closes while
		// traffic still flows (an unhealed window would strand tours).
		est := int64(p.SeqTours*p.TourHops+p.ParTours*p.ParWidth) * 6
		crash := 1 + rng.Intn(pool-1)
		pa := 1 + rng.Intn(pool-1)
		pb := 1 + rng.Intn(pool-1)
		for pb == pa {
			pb = 1 + rng.Intn(pool-1)
		}
		plan.Schedule = []fault.Step{
			{AfterCalls: est / 20, Op: fault.OpCrash, A: deviceName(crash)},
			{AfterCalls: est / 10, Op: fault.OpRestart, A: deviceName(crash)},
			{AfterCalls: est * 3 / 20, Op: fault.OpPartition, A: deviceName(pa), B: deviceName(pb)},
			{AfterCalls: est / 5, Op: fault.OpHeal, A: deviceName(pa), B: deviceName(pb)},
		}
	}
	return plan
}

// deviceName is the logical (netsim) address of device i — the names the
// scripted schedule addresses. Only netsim fabrics run faults, so the
// logical names are always the attached ones there.
func deviceName(i int) string { return fmt.Sprintf("dev%d", i) }

// Digest fingerprints the plan. Two runs with the same profile and seed
// produce the same digest regardless of fabric, wall-clock, or goroutine
// interleaving — the replay test's identity check.
func (p *Plan) Digest() string {
	h := fnv.New64a()
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d|", p.Profile, p.Seed, p.Pool)
	for _, t := range p.Tours {
		fmt.Fprintf(&b, "t%v%v|", t.Par, t.Route)
	}
	for _, c := range p.Chases {
		fmt.Fprintf(&b, "c%v+%d|", c.Route, c.Msgs)
	}
	for _, s := range p.Schedule {
		fmt.Fprintf(&b, "f%d:%s:%s:%s|", s.AfterCalls, s.Op, s.A, s.B)
	}
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

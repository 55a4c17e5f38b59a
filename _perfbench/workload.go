package main

import (
	"fmt"

	"shadow/internal/dram"
	"shadow/internal/exp"
	"shadow/internal/hammer"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// Workload names. Later changes refer to these, so they are fixed.
const (
	wlFig11    = "fig11-ddr5"
	wlMixLow   = "mixlow-64"
	wlAttack   = "attack-ddr4"
	attackHCnt = 2048
)

var workloadNames = []string{wlFig11, wlMixLow, wlAttack}

// point is one operating point of a workload. A mix point drives
// trace.Generators through sim.Run; an attack point drives a double-sided
// pattern through sim.RunAttack.
type point struct {
	label string
	pt    exp.Point
	geo   dram.Geometry

	// Mix points.
	profiles         []trace.Profile
	duration, warmup timing.Tick

	// Attack points.
	attack       bool
	maxActs      int64
	hammer       hammer.Config
	bank, victim int
}

// workload is a fixed, seed-determined list of points, run in order on one
// goroutine: each point starts when the previous one returns.
type workload struct {
	name   string
	seed   uint64
	points []point
}

// scale shrinks a workload's horizons for the smoke test. full is the
// benchmark's scale.
type scale struct {
	fig11Warmup, fig11Duration timing.Tick
	mixLowDuration             timing.Tick
	attackActs                 int64
}

var full = scale{
	fig11Warmup:    timing.Millisecond,
	fig11Duration:  500 * timing.Microsecond,
	mixLowDuration: 2 * timing.Millisecond,
	attackActs:     300_000,
}

// newWorkload builds the named workload's points for a seed.
func newWorkload(name string, seed uint64, sc scale) (*workload, error) {
	w := &workload{name: name, seed: seed}
	switch name {
	case wlFig11:
		// Fig. 11's DDR5-4800 configuration: 4-core mix-high, trackers warmed
		// for 1 ms, 500 us measured. H_cnt 16K is where the MC-side trackers
		// run on every ACT without acting; 2K is where every scheme acts.
		geo := exp.RunOpts{}.Geometry(timing.DDR5_4800)
		profiles := clampWS(trace.MixHigh(4), geo)
		add := func(s exp.Scheme, hcnt int) {
			w.points = append(w.points, point{
				label:    fmt.Sprintf("%s/h%d", s, hcnt),
				pt:       exp.Point{Scheme: s, HCnt: hcnt, Grade: timing.DDR5_4800, Seed: seed},
				geo:      geo,
				profiles: profiles,
				duration: sc.fig11Duration, warmup: sc.fig11Warmup,
			})
		}
		add(exp.Baseline, 0)
		for _, h := range []int{16384, 2048} {
			for _, s := range []exp.Scheme{exp.Shadow, exp.BlockHammer, exp.RRS} {
				add(s, h)
			}
		}
	case wlMixLow:
		// The idle-heavy 64-core sub-1-MPKI mix on DDR4-2666 at the paper's
		// default H_cnt: the memory system is quiet most of the horizon, so
		// the wheel, the core-arrival queue and per-wakeup Steps dominate.
		geo := exp.RunOpts{}.Geometry(timing.DDR4_2666)
		profiles := clampWS(trace.MixLow(64), geo)
		for _, s := range []exp.Scheme{exp.Baseline, exp.Shadow} {
			w.points = append(w.points, point{
				label:    fmt.Sprintf("%s/h4096", s),
				pt:       exp.Point{Scheme: s, HCnt: 4096, Grade: timing.DDR4_2666, Seed: seed},
				geo:      geo,
				profiles: profiles,
				duration: sc.mixLowDuration,
			})
		}
	case wlAttack:
		// A double-sided hammer at H_cnt 2K. The seed picks the bank and the
		// victim row; the victim sits inside a subarray so both aggressors
		// share it.
		geo := exp.RunOpts{}.Geometry(timing.DDR4_2666)
		h := mix64(seed)
		bank := int(h % uint64(geo.Banks))
		sub := int((h >> 8) % uint64(geo.SubarraysPerBank))
		victim := sub*geo.RowsPerSubarray + 2 + int((h>>16)%uint64(geo.RowsPerSubarray-4))
		for _, s := range []exp.Scheme{exp.Baseline, exp.Shadow, exp.PARFM, exp.RRS} {
			w.points = append(w.points, point{
				label:   fmt.Sprintf("%s/h%d", s, attackHCnt),
				pt:      exp.Point{Scheme: s, HCnt: attackHCnt, Grade: timing.DDR4_2666, Seed: seed},
				geo:     geo,
				attack:  true,
				maxActs: sc.attackActs,
				hammer:  hammer.Config{HCnt: attackHCnt, BlastRadius: 3},
				bank:    bank,
				victim:  victim,
			})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// clampWS bounds working sets to the geometry, as the experiment harness
// does before every run.
func clampWS(profiles []trace.Profile, g dram.Geometry) []trace.Profile {
	for i := range profiles {
		if profiles[i].WorkingSetRows > g.PARowsPerBank() {
			profiles[i].WorkingSetRows = g.PARowsPerBank()
		}
	}
	return profiles
}

// mix64 is the splitmix64 finalizer: it spreads a small seed over 64 bits.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

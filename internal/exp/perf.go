package exp

import (
	"fmt"

	"shadow/internal/timing"
	"shadow/internal/trace"
)

// PerfPoint is one measured relative-performance value.
type PerfPoint struct {
	Workload string
	Scheme   Scheme
	HCnt     int
	Blast    int
	Rel      float64 // normalized weighted speedup vs. no-mitigation baseline
}

// perfJob is one operating point to simulate.
type perfJob struct {
	workload string
	profiles []trace.Profile
	pt       Point
	// out receives the measured relative performance.
	out *PerfPoint
}

// runJobs sweeps the jobs, concurrently up to o.Workers, pre-warming the
// per-workload baselines so parallel points only contend on the cache read.
func runJobs(jobs []perfJob, o RunOpts) error {
	o = o.withDefaults()
	// Pre-warm baselines serially (one per distinct workload+grade).
	seen := map[string]bool{}
	for _, j := range jobs {
		key := fmt.Sprintf("%s/%v", j.workload, j.pt.Grade)
		if seen[key] {
			continue
		}
		seen[key] = true
		geo := o.Geometry(j.pt.Grade)
		profiles := append([]trace.Profile(nil), j.profiles...)
		clampWS(profiles, geo)
		if _, err := baselineRun(j.pt.Grade, profiles, geo, o); err != nil {
			return err
		}
	}
	return parallelEach(len(jobs), o.Workers, func(i int) error {
		j := jobs[i]
		ws, _, err := runPoint(j.pt, append([]trace.Profile(nil), j.profiles...), o)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", j.workload, j.pt.Scheme, err)
		}
		*j.out = PerfPoint{
			Workload: j.workload,
			Scheme:   j.pt.Scheme,
			HCnt:     j.pt.HCnt,
			Blast:    j.pt.Blast,
			Rel:      ws,
		}
		return nil
	})
}

// Fig8 reproduces Figure 8: relative performance of SHADOW, PARFM,
// Mithril-perf, Mithril-area, and DRR on single-threaded SPEC groups,
// multi-threaded GAPBS/NPB, and the multiprogrammed mixes, on the DDR4-2666
// actual-system configuration at the default H_cnt (4K).
func Fig8(o RunOpts) ([]PerfPoint, *Table, error) {
	o = o.withDefaults()
	const hcnt = 4096
	schemes := []Scheme{Shadow, PARFM, MithrilPerf, MithrilArea, DRR}

	type wl struct {
		name     string
		profiles []trace.Profile
	}
	workloads := []wl{
		{"spec-HIGH", groupAsCores(trace.SpecHigh, 1)},
		{"spec-MED", groupAsCores(trace.SpecMed, 1)},
		{"spec-LOW", groupAsCores(trace.SpecLow, 1)},
		{"gapbs", groupAsCores(trace.GAPBS[:4], 1)},
		{"npb", groupAsCores(trace.NPB[:4], 1)},
		{"mix-high", trace.MixHigh(o.Cores)},
		{"mix-blend", trace.MixBlend(o.Cores)},
	}

	points := make([]PerfPoint, len(workloads)*len(schemes))
	var jobs []perfJob
	for wi, w := range workloads {
		for si, s := range schemes {
			jobs = append(jobs, perfJob{
				workload: w.name,
				profiles: w.profiles,
				pt:       Point{Scheme: s, HCnt: hcnt, Grade: timing.DDR4_2666, Seed: o.Seed},
				out:      &points[wi*len(schemes)+si],
			})
		}
	}
	if err := runJobs(jobs, o); err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "Figure 8: relative performance at Hcnt=4K (DDR4-2666)",
		Header: append([]string{"workload"}, schemeNames(schemes)...),
		Notes: []string{
			"paper shape: all schemes near 1.0 single-threaded; SHADOW <3% down on intensive loads;",
			"Mithril-perf best; SHADOW comparable to Mithril-area and ahead of PARFM and DRR",
		},
	}
	for wi, w := range workloads {
		row := []string{w.name}
		for si := range schemes {
			row = append(row, fmt.Sprintf("%.3f", points[wi*len(schemes)+si].Rel))
		}
		t.Rows = append(t.Rows, row)
	}
	return points, t, nil
}

// groupAsCores averages a suite by running one core per application (n
// copies each).
func groupAsCores(suite []trace.Profile, n int) []trace.Profile {
	var out []trace.Profile
	for _, p := range suite {
		for i := 0; i < n; i++ {
			out = append(out, p)
		}
	}
	return out
}

// Fig9 reproduces Figure 9: SHADOW's sensitivity to the tRCD' value (23, 25,
// 27 tCK vs. the 19 tCK baseline) on mix-high and mix-blend while sweeping
// H_cnt 16K -> 2K.
func Fig9(o RunOpts) ([]PerfPoint, *Table, error) {
	o = o.withDefaults()
	hcnts := []int{16384, 8192, 4096, 2048}
	trcds := []int{23, 25, 27}
	wnames := []string{"mix-high", "mix-blend"}

	points := make([]PerfPoint, len(wnames)*len(hcnts)*len(trcds))
	var jobs []perfJob
	idx := 0
	for _, wname := range wnames {
		profiles := mixByName(wname, o.Cores)
		for _, h := range hcnts {
			for _, trcd := range trcds {
				jobs = append(jobs, perfJob{
					workload: wname,
					profiles: profiles,
					pt:       Point{Scheme: Shadow, HCnt: h, Grade: timing.DDR4_2666, TRCDCycles: trcd, Seed: o.Seed},
					out:      &points[idx],
				})
				idx++
			}
		}
	}
	if err := runJobs(jobs, o); err != nil {
		return nil, nil, err
	}
	// The Blast field carries the tRCD value for Fig9 points.
	for i := range points {
		points[i].Blast = jobs[i].pt.TRCDCycles
	}

	t := &Table{
		Title:  "Figure 9: SHADOW tRCD sensitivity (weighted speedup vs tRCD19 baseline)",
		Header: []string{"workload", "Hcnt", "tRCD23", "tRCD25", "tRCD27"},
		Notes: []string{
			"paper shape: visible tRCD effect at Hcnt 16K, shrinking at 2K where RFMs dominate;",
			"all cases < 4% overhead",
		},
	}
	idx = 0
	for _, wname := range wnames {
		for _, h := range hcnts {
			row := []string{wname, fmt.Sprintf("%d", h)}
			for range trcds {
				row = append(row, fmt.Sprintf("%.3f", points[idx].Rel))
				idx++
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return points, t, nil
}

// Fig10 reproduces Figure 10: blast-radius sensitivity (1-5) of SHADOW,
// PARFM, and Mithril at H_cnt 2K on mix-high and mix-blend. SHADOW's curve
// is flat; the TRR-based schemes pay more per mitigation and need more
// frequent RFMs as the radius grows.
func Fig10(o RunOpts) ([]PerfPoint, *Table, error) {
	o = o.withDefaults()
	const hcnt = 2048
	schemes := []Scheme{Shadow, PARFM, MithrilArea}
	wnames := []string{"mix-high", "mix-blend"}

	points := make([]PerfPoint, len(wnames)*5*len(schemes))
	var jobs []perfJob
	idx := 0
	for _, wname := range wnames {
		profiles := mixByName(wname, o.Cores)
		for blast := 1; blast <= 5; blast++ {
			for _, s := range schemes {
				jobs = append(jobs, perfJob{
					workload: wname,
					profiles: profiles,
					pt:       Point{Scheme: s, HCnt: hcnt, Blast: blast, Grade: timing.DDR4_2666, Seed: o.Seed},
					out:      &points[idx],
				})
				idx++
			}
		}
	}
	if err := runJobs(jobs, o); err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "Figure 10: blast radius sensitivity at Hcnt=2K",
		Header: []string{"workload", "blast", "shadow", "parfm", "mithril-area"},
		Notes: []string{
			"paper shape: SHADOW flat across radii; beyond radius 2 SHADOW outperforms the others",
		},
	}
	idx = 0
	for _, wname := range wnames {
		for blast := 1; blast <= 5; blast++ {
			row := []string{wname, fmt.Sprintf("%d", blast)}
			for range schemes {
				row = append(row, fmt.Sprintf("%.3f", points[idx].Rel))
				idx++
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return points, t, nil
}

// Fig11 reproduces Figure 11: the architectural-simulation comparison of
// SHADOW against BlockHammer and RRS on DDR5-4800 across H_cnt 16K -> 2K on
// mix-high, mix-blend, and mix-random.
func Fig11(o RunOpts) ([]PerfPoint, *Table, error) {
	o = o.withDefaults()
	// BlockHammer's blacklist and RRS's swap threshold accumulate over the
	// refresh window; horizons under ~1 ms end before any hot row crosses
	// them, hiding the schemes' cost entirely. Warm the trackers for 1 ms
	// and measure at least 500 us of steady state.
	if o.Warmup == 0 {
		o.Warmup = timing.Millisecond
	}
	if o.Duration < 500*timing.Microsecond {
		o.Duration = 500 * timing.Microsecond
	}
	hcnts := []int{16384, 8192, 4096, 2048}
	schemes := []Scheme{Shadow, BlockHammer, RRS}
	wnames := []string{"mix-high", "mix-blend", "mix-random"}

	points := make([]PerfPoint, len(wnames)*len(hcnts)*len(schemes))
	var jobs []perfJob
	idx := 0
	for _, wname := range wnames {
		profiles := mixByName(wname, o.Cores)
		for _, h := range hcnts {
			for _, s := range schemes {
				jobs = append(jobs, perfJob{
					workload: wname,
					profiles: profiles,
					pt:       Point{Scheme: s, HCnt: h, Grade: timing.DDR5_4800, Seed: o.Seed},
					out:      &points[idx],
				})
				idx++
			}
		}
	}
	if err := runJobs(jobs, o); err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "Figure 11: SHADOW vs BlockHammer vs RRS (DDR5-4800)",
		Header: []string{"workload", "Hcnt", "shadow", "blockhammer", "rrs"},
		Notes: []string{
			"paper shape: SHADOW robust everywhere and best below Hcnt 4K;",
			"RRS collapses from channel-blocking swaps and BlockHammer from misidentification at low Hcnt",
		},
	}
	idx = 0
	for _, wname := range wnames {
		for _, h := range hcnts {
			row := []string{wname, fmt.Sprintf("%d", h)}
			for range schemes {
				row = append(row, fmt.Sprintf("%.3f", points[idx].Rel))
				idx++
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return points, t, nil
}

func mixByName(name string, cores int) []trace.Profile {
	switch name {
	case "mix-high":
		return trace.MixHigh(cores)
	case "mix-blend":
		return trace.MixBlend(cores)
	case "mix-random":
		return trace.MixRandom(cores, 20230223)
	}
	panic("exp: unknown mix " + name)
}

func schemeNames(ss []Scheme) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = string(s)
	}
	return out
}

// Fig8Sweep extends Figure 8 along the H_cnt axis (the figure's grouped bars
// at 16K/8K/4K/2K): the RFM-compatible schemes on mix-high, DDR4-2666. The
// paper's observation is that the ordering holds across the sweep, with the
// gap between Mithril-area and SHADOW shrinking at low H_cnt.
func Fig8Sweep(o RunOpts) ([]PerfPoint, *Table, error) {
	o = o.withDefaults()
	hcnts := []int{16384, 8192, 4096, 2048}
	schemes := []Scheme{Shadow, PARFM, MithrilPerf, MithrilArea, DRR}
	profiles := trace.MixHigh(o.Cores)

	points := make([]PerfPoint, len(hcnts)*len(schemes))
	var jobs []perfJob
	idx := 0
	for _, h := range hcnts {
		for _, s := range schemes {
			jobs = append(jobs, perfJob{
				workload: "mix-high",
				profiles: profiles,
				pt:       Point{Scheme: s, HCnt: h, Grade: timing.DDR4_2666, Seed: o.Seed},
				out:      &points[idx],
			})
			idx++
		}
	}
	if err := runJobs(jobs, o); err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "Figure 8 (Hcnt sweep): mix-high relative performance (DDR4-2666)",
		Header: append([]string{"Hcnt"}, schemeNames(schemes)...),
		Notes: []string{
			"paper shape: ordering stable across the sweep; Mithril-area/SHADOW gap shrinks at low Hcnt",
		},
	}
	idx = 0
	for _, h := range hcnts {
		row := []string{fmt.Sprintf("%d", h)}
		for range schemes {
			row = append(row, fmt.Sprintf("%.3f", points[idx].Rel))
			idx++
		}
		t.Rows = append(t.Rows, row)
	}
	return points, t, nil
}

// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation (Table II, Table III, Figures 8-12, and
// the Section VII-C adversarial bounds), built on the simulator, the
// security analytics, the circuit model, and the power model.
//
// Scheme configuration policy (documented here because every figure depends
// on it):
//
//   - SHADOW uses the secure RAAIMT of Table II for each H_cnt (2K:32,
//     4K:64, 8K:128, 16K:256), computed by security.SecureRAAIMT.
//   - PARFM needs roughly twice SHADOW's RFM rate for equal protection
//     because TRR leaves the aggressor in place (it keeps hammering from the
//     same location between samples), so RAAIMT_PARFM = RAAIMT_SHADOW / 2.
//   - Mithril-perf uses a large (10 KB/bank-class) tracker, which permits a
//     high RAAIMT = H_cnt/8; Mithril-area pins RAAIMT = 32 with a small
//     table, exactly the paper's two configurations.
//   - TRR-based schemes (PARFM, Mithril) degrade with the blast radius:
//     the per-RFM TRR must refresh 2*blast victims (multiple tRFM slots when
//     they no longer fit) and the effective per-aggressor budget shrinks by
//     W_sum/2, so their RAAIMT scales by 2/W_sum. SHADOW's RAAIMT is blast-
//     independent: the shuffle relocates the aggressor, protecting every row
//     in the blast radius at once (Section III-A).
//   - BlockHammer blacklists at half the blast-adjusted threshold and
//     throttles to spread the remaining budget over the refresh window;
//     RRS swaps at H_cnt/6 (the paper's favorable configuration) with a 4 us
//     channel-blocking swap.
//
// No short-horizon scaling: the window-relative schemes (BlockHammer's
// blacklist epochs and throttle budget, the RRS and Graphene counter
// resets) get the full refresh window tREFW (32 ms) and unscaled thresholds
// whatever the simulated Duration. On a horizon much shorter than tREFW such
// a scheme may never act: at 60 us BlockHammer blacklists no row and runs
// exactly like baseline. Fig. 11 therefore warms its trackers for 1 ms and
// measures at least 500 us.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"shadow/internal/circuit"
	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/mitigate"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/security"
	"shadow/internal/shadow"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// Scheme identifies a mitigation configuration.
type Scheme string

// The schemes of the paper's evaluation.
const (
	Baseline    Scheme = "baseline"
	Shadow      Scheme = "shadow"
	PARFM       Scheme = "parfm"
	MithrilPerf Scheme = "mithril-perf"
	MithrilArea Scheme = "mithril-area"
	DRR         Scheme = "drr"
	BlockHammer Scheme = "blockhammer"
	RRS         Scheme = "rrs"
	Graphene    Scheme = "graphene"
	PARA        Scheme = "para"
	Panopticon  Scheme = "panopticon"
)

// AllSchemes lists every non-baseline scheme. The paper's Figure 8/11 set
// comes first; Graphene, classic PARA, and Panopticon (Section IX related
// work) follow.
var AllSchemes = []Scheme{Shadow, PARFM, MithrilPerf, MithrilArea, DRR, BlockHammer, RRS, Graphene, PARA, Panopticon}

// ShadowRAAIMT returns SHADOW's secure RFM threshold for an H_cnt.
func ShadowRAAIMT(hcnt int) int {
	if r := security.SecureRAAIMT(hcnt); r > 0 {
		return r
	}
	return 8
}

// trrRAAIMT blast-adjusts a TRR scheme's RAAIMT.
func trrRAAIMT(base, blast int) int {
	w := hammer.Config{HCnt: 1, BlastRadius: blast}.WSum()
	r := int(float64(base) * 2 / w)
	if r < 8 {
		r = 8
	}
	return r
}

// trrRFMSlots returns how many tRFM slots one TRR mitigation needs: 2*blast
// victim refreshes at tRAS+tRP each must fit in tRFM.
func trrRFMSlots(p *timing.Params, blast int) int {
	need := timing.Tick(2*blast) * (p.RAS + p.RP)
	slots := int((need + p.RFM - 1) / p.RFM)
	if slots < 1 {
		slots = 1
	}
	return slots
}

// Point is one experiment operating point.
type Point struct {
	Scheme Scheme
	HCnt   int
	Blast  int
	Grade  timing.Grade
	// TRCDCycles overrides SHADOW's effective tRCD in clock cycles (Fig. 9
	// sensitivity study); 0 uses the circuit model's value.
	TRCDCycles int
	Seed       uint64
}

// Build assembles the timing parameters and mitigators for a point. The
// second argument, the simulated duration, is unused: thresholds are never
// scaled to the horizon (see the package doc).
func (pt Point) Build(geo dram.Geometry, _ timing.Tick) (*timing.Params, dram.Mitigator, mitigate.MCSide) {
	base := timing.NewParams(pt.Grade)
	blast := pt.Blast
	if blast == 0 {
		blast = 3
	}

	switch pt.Scheme {
	case Baseline:
		return base, nil, nil

	case Shadow:
		p := base.WithShadow(circuit.DefaultShadowTimings(base)).WithRAAIMT(ShadowRAAIMT(pt.HCnt))
		if pt.TRCDCycles > 0 {
			// Express the sensitivity point as tRCD' = TRCDCycles * tCK.
			p.Shadow.RDRM = p.Cycles(pt.TRCDCycles) - p.RCD
			if p.Shadow.RDRM < 0 {
				p.Shadow.RDRM = 0
			}
		}
		return p, shadow.New(shadow.Options{Seed: pt.Seed + 1}), nil

	case PARFM:
		p := base.WithRAAIMT(trrRAAIMT(ShadowRAAIMT(pt.HCnt)/2, blast))
		p.RFM *= timing.Tick(trrRFMSlots(p, blast))
		return p, mitigate.NewPARFM(blast, pt.Seed+2), nil

	case MithrilPerf:
		raaimt := pt.HCnt / 8
		if raaimt < 8 {
			raaimt = 8
		}
		p := base.WithRAAIMT(trrRAAIMT(raaimt, blast))
		p.RFM *= timing.Tick(trrRFMSlots(p, blast))
		return p, mitigate.NewMithril(2048, blast), nil

	case MithrilArea:
		p := base.WithRAAIMT(trrRAAIMT(32, blast))
		p.RFM *= timing.Tick(trrRFMSlots(p, blast))
		return p, mitigate.NewMithril(256, blast), nil

	case DRR:
		return base.WithRefreshScale(2), nil, nil

	case BlockHammer:
		return base, nil, mitigate.NewBlockHammer(mitigate.BlockHammerConfig{
			Hammer: hammer.Config{HCnt: pt.HCnt, BlastRadius: blast},
			REFW:   base.REFW,
			Seed:   pt.Seed + 3,
		})

	case RRS:
		thr := int64(pt.HCnt / 6)
		if thr < 2 {
			thr = 2
		}
		return base, nil, mitigate.NewRRS(mitigate.RRSConfig{
			SwapThreshold: thr,
			RowsPerBank:   geo.PARowsPerBank(),
			REFW:          base.REFW,
			Seed:          pt.Seed + 4,
		})

	case Graphene:
		return base, nil, mitigate.NewGraphene(mitigate.GrapheneConfig{
			Hammer:      hammer.Config{HCnt: pt.HCnt, BlastRadius: blast},
			RowsPerBank: geo.PARowsPerBank(),
			REFW:        base.REFW,
		})

	case PARA:
		return base, nil, mitigate.NewPARA(
			hammer.Config{HCnt: pt.HCnt, BlastRadius: blast},
			geo.PARowsPerBank(), pt.Seed+5)

	case Panopticon:
		// Per-row counters drain their refresh queue at RFM slots; pace them
		// like Mithril-area.
		p := base.WithRAAIMT(trrRAAIMT(32, blast))
		return p, mitigate.NewPanopticon(pt.HCnt, blast), nil
	}
	panic(fmt.Sprintf("exp: unknown scheme %q", pt.Scheme))
}

// RunOpts controls the simulation scale of the figure experiments. Zero
// values take the defaults below — sized so the full suite regenerates in
// minutes; raise Duration toward tREFW (32 ms) for full-fidelity runs.
type RunOpts struct {
	Duration timing.Tick // default 150 us
	// Warmup runs (and discards) this much simulated time before Duration,
	// letting tracker/filter state reach steady state. Fig11 defaults it to
	// 1 ms when unset.
	Warmup timing.Tick
	Cores  int // default 4 (one channel's share of the 14-core mixes)
	Seed   uint64
	// Subarrays shrinks per-bank subarray count to bound memory (default 16).
	Subarrays int
	// Workers bounds the number of operating points simulated concurrently
	// (default GOMAXPROCS; forced to 1 when ProbeFor is set).
	Workers int
	// ProbeFor, when set, supplies a shadowscope probe for each scheme run,
	// keyed by a "<scheme>/<workloads>/h<hcnt>" label. Baseline runs are
	// never probed (they are shared through the cache and must stay
	// unperturbed). Setting it forces Workers=1: a Recorder is not safe for
	// concurrent use.
	ProbeFor func(label string) *obs.Probe
	// SpansFor, when set, supplies a shadowtap span collector for each
	// scheme run, keyed like ProbeFor. Baseline runs are never span-tracked.
	// Setting it forces Workers=1 (callers typically aggregate the
	// collectors from one goroutine).
	SpansFor func(label string) *span.Collector
	// Progress, when set, receives per-run progress callbacks: the run's
	// label, its current simulated time, and its total horizon (drives the
	// live -inspect endpoint). Setting it forces Workers=1.
	Progress func(label string, now, total timing.Tick)
	// record, when set, observes every scheme run of a figure: its label,
	// its result and the FNV hash of its command stream. The results
	// digest test uses it to pin every simulated number across changes.
	// It may be called from several sweep workers at once.
	record func(label string, res *sim.Result, cmdHash uint64)
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Duration == 0 {
		o.Duration = 150 * timing.Microsecond
	}
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.Subarrays == 0 {
		o.Subarrays = 16
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ProbeFor != nil || o.SpansFor != nil || o.Progress != nil {
		o.Workers = 1
	}
	return o
}

func (o RunOpts) Geometry(grade timing.Grade) dram.Geometry {
	g := dram.DefaultGeometry(grade == timing.DDR5_4800)
	if o.Subarrays > 0 {
		g.SubarraysPerBank = o.Subarrays
	} else {
		g.SubarraysPerBank = 16
	}
	return g
}

// runPoint simulates one (scheme, workload) point and its matching baseline,
// returning the normalized weighted speedup.
func runPoint(pt Point, profiles []trace.Profile, o RunOpts) (float64, *sim.Result, error) {
	o = o.withDefaults()
	geo := o.Geometry(pt.Grade)
	clampWS(profiles, geo)

	total := o.Duration + o.Warmup
	baseRes, err := baselineRun(pt.Grade, profiles, geo, o)
	if err != nil {
		return 0, nil, err
	}

	p, dm, mc := pt.Build(geo, o.Duration)
	label := pointLabel(pt, profiles)
	var probe *obs.Probe
	if o.ProbeFor != nil {
		probe = o.ProbeFor(label)
	}
	var spans *span.Collector
	if o.SpansFor != nil {
		spans = o.SpansFor(label)
	}
	var progress func(timing.Tick)
	if o.Progress != nil {
		progress = func(now timing.Tick) { o.Progress(label, now, total) }
	}
	res, err := o.run(label, sim.Config{
		Params: p, Geometry: geo, DeviceMit: dm, MCSide: mc,
		Hammer:   hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
		Workload: trace.Generators(profiles, geo, o.Seed),
		Duration: total,
		Warmup:   o.Warmup,
		Probe:    probe,
		Spans:    spans,
		Progress: progress,
	})
	if err != nil {
		return 0, nil, err
	}
	return sim.WeightedSpeedup(res, baseRes), res, nil
}

// run simulates one scheme run and hands it to o.record when that is set.
// Figures run one channel, so the command hash leaves the channel out.
func (o RunOpts) run(label string, cfg sim.Config) (*sim.Result, error) {
	if o.record == nil {
		return sim.Run(cfg)
	}
	h := flight.NewCmdHash()
	cfg.OnCommand = func(_ int, c memctrl.Cmd) { h.Note(int(c.Kind), c.Bank, c.Row, c.At) }
	res, err := sim.Run(cfg)
	if err == nil {
		o.record(label, res, h.Sum())
	}
	return res, err
}

// pointLabel names a scheme run's shadowscope track. The label must be
// injective over the point's configuration: it keys ProbeFor's Perfetto
// tracks and SpansFor's blame rows, so two differently-configured points
// sharing one label would merge into one track and one blame row (Fig. 9
// varies tRCD, Fig. 10 blast radius, Fig. 11 the DRAM grade, all at a
// fixed scheme/workload/H_cnt). Non-default fields append suffixes so the
// common case keeps the short scheme/workload/hNNNN form.
func pointLabel(pt Point, profiles []trace.Profile) string {
	names := ""
	for i, p := range profiles {
		if i > 0 {
			names += "+"
		}
		names += p.Name
	}
	label := fmt.Sprintf("%s/%s/h%d", pt.Scheme, names, pt.HCnt)
	if pt.Blast != 0 {
		label += fmt.Sprintf("/b%d", pt.Blast)
	}
	if pt.TRCDCycles != 0 {
		label += fmt.Sprintf("/trcd%d", pt.TRCDCycles)
	}
	if pt.Grade != timing.DDR4_2666 {
		label += "/" + pt.Grade.String()
	}
	return label
}

// clampWS bounds working sets to the geometry.
func clampWS(profiles []trace.Profile, g dram.Geometry) {
	for i := range profiles {
		if profiles[i].WorkingSetRows > g.PARowsPerBank() {
			profiles[i].WorkingSetRows = g.PARowsPerBank()
		}
	}
}

// RunPoint simulates one (scheme, workload) operating point and its
// matching no-mitigation baseline, returning the normalized weighted speedup
// and the scheme run's full result.
func RunPoint(pt Point, profiles []trace.Profile, o RunOpts) (float64, *sim.Result, error) {
	return runPoint(pt, profiles, o)
}

// baselineCache memoizes no-mitigation runs: every scheme point of a figure
// shares its baseline. The mutex serializes baseline construction so
// concurrent scheme points never duplicate the work.
var (
	baselineMu    sync.Mutex
	baselineCache = map[string]*sim.Result{}
)

func baselineRun(grade timing.Grade, profiles []trace.Profile, geo dram.Geometry, o RunOpts) (*sim.Result, error) {
	key := fmt.Sprintf("%v/%d/%d/%d/%d/%d", grade, o.Duration, o.Warmup, o.Cores, o.Seed, o.Subarrays)
	for _, p := range profiles {
		key += "," + p.Name
	}
	baselineMu.Lock()
	defer baselineMu.Unlock()
	if r, ok := baselineCache[key]; ok {
		return r, nil
	}
	bp := timing.NewParams(grade)
	res, err := sim.Run(sim.Config{
		Params: bp, Geometry: geo,
		Hammer:   hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
		Workload: trace.Generators(profiles, geo, o.Seed),
		Duration: o.Duration + o.Warmup,
		Warmup:   o.Warmup,
	})
	if err != nil {
		return nil, err
	}
	baselineCache[key] = res
	return res, nil
}

// parallelEach runs f(i) for i in [0, n) on up to workers goroutines and
// returns the first error. Experiment figures use it to sweep operating
// points concurrently; each point's simulation is independent (the shared
// baseline cache is internally synchronized).
func parallelEach(n, workers int, f func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg    sync.WaitGroup
		next  int64
		errMu sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

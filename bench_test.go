// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for SHADOW's design choices. Each benchmark
// regenerates its experiment at the harness's quick scale and reports the
// headline values as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Raise the scale with the shadowexp CLI for
// higher-fidelity runs.
package shadow_test

import (
	"testing"

	"shadow/internal/circuit"
	"shadow/internal/dram"
	"shadow/internal/exp"
	"shadow/internal/hammer"
	"shadow/internal/mitigate"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/power"
	"shadow/internal/security"
	"shadow/internal/shadow"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

func benchOpts() exp.RunOpts {
	return exp.RunOpts{Duration: 60 * timing.Microsecond, Cores: 4, Subarrays: 8, Seed: 5}
}

// BenchmarkSim measures raw simulator throughput — the perf gate of the
// scheduler optimizations. Three headline schemes (DDR4-2666, 4 cores,
// mix-high), each in five modes: the tick-skipping event wheel as shipped
// (timeskip), the event-driven readiness cache on the per-tick loop
// (event), the shipped configuration with the always-on telemetry lane
// (flight: metrics probe + flight ring), with full observation attached
// (probed: shadowscope probe + shadowtap spans, which force non-idle banks
// volatile and so collapse the wheel toward per-tick behavior), and the
// legacy full-rescan per-tick scheduler kept compiled for the equivalence
// matrix (rescan — the double-oracle). A fourth lane, mix-low, runs the
// idle-heavy sub-1-MPKI workload where the wheel's jumps dominate: its
// timeskip-vs-event ratio is the wheel's headline speedup. Two tracker
// lanes, rrs and graphene, run the Space-Saving tracker on every ACT at
// Fig. 11's low-H_cnt corner. Every non-baseline lane must show its scheme
// acting (see benchSimOpts); there is no BlockHammer lane because its
// per-tREFW budget never blacklists a row on these horizons (the
// fig11-ddr5 workload of `bash _perfbench/run.sh` measures it where it
// fires). Run with -benchmem and compare runs with benchstat.
func BenchmarkSim(b *testing.B) {
	schemes := []exp.Scheme{exp.Baseline, exp.Shadow, exp.MithrilPerf}
	modes := []struct {
		name                            string
		flight, probed, rescan, pertick bool
	}{
		{name: "timeskip"},
		{name: "event", pertick: true},
		{name: "flight", flight: true},
		{name: "probed", probed: true},
		{name: "rescan", rescan: true, pertick: true},
	}
	for _, scheme := range schemes {
		for _, mode := range modes {
			mode := mode
			b.Run(string(scheme)+"/"+mode.name, func(b *testing.B) {
				o := benchOpts()
				benchSimOpts(b, o, ddr4Point(scheme), trace.MixHigh(o.Cores), mode.flight, mode.probed, mode.rescan, mode.pertick)
			})
		}
	}
	// The tracker lanes: DDR5-4800 at H_cnt 2K with 4-core mix-high, whose
	// mcf rows cross the RRS swap and Graphene refresh thresholds within
	// 600 us (TestFig11PointCrossover's operating point). Only the shipped
	// scheduler: the tracker sits below the scheduler axis.
	for _, scheme := range []exp.Scheme{exp.RRS, exp.Graphene} {
		b.Run(string(scheme)+"/ddr5-2k", func(b *testing.B) {
			o := benchOpts()
			o.Duration = 600 * timing.Microsecond
			pt := exp.Point{Scheme: scheme, HCnt: 2048, Grade: timing.DDR5_4800}
			benchSimOpts(b, o, pt, trace.MixHigh(o.Cores), false, false, false, false)
		})
	}
	// The idle-heavy lane: no telemetry variants, just the scheduler axis.
	// 64 sub-1-MPKI cores on a long horizon is the wheel's headline shape —
	// the per-tick loop pays an O(cores) issue scan at every wakeup, the
	// wheel pops only the cores that are actually due. The horizon is 1 ms
	// (17x the mix-high lane) so the loop dominates construction cost. Past
	// ~64 cores even this mix saturates the bank queues and enqueue-backoff
	// polling erases the wheel's edge, so the lane stays at 64.
	for _, mode := range modes {
		mode := mode
		if mode.flight || mode.probed {
			continue
		}
		b.Run("mix-low/"+mode.name, func(b *testing.B) {
			o := benchOpts()
			o.Cores = 64
			o.Duration = timing.Millisecond
			benchSimOpts(b, o, ddr4Point(exp.Shadow), trace.MixLow(o.Cores), false, false, mode.rescan, mode.pertick)
		})
	}
}

// ddr4Point is the DDR4-2666 lanes' operating point: H_cnt 4K, blast 3.
func ddr4Point(scheme exp.Scheme) exp.Point {
	return exp.Point{Scheme: scheme, HCnt: 4096, Blast: 3, Grade: timing.DDR4_2666}
}

func benchSimOpts(b *testing.B, o exp.RunOpts, pt exp.Point, profiles []trace.Profile, flighted, probed, rescan, pertick bool) {
	pt.Seed = o.Seed
	scheme := pt.Scheme
	geo := o.Geometry(pt.Grade)
	for i := range profiles {
		if profiles[i].WorkingSetRows > geo.PARowsPerBank() {
			profiles[i].WorkingSetRows = geo.PARowsPerBank()
		}
	}
	b.ReportAllocs()
	// Warm process-level caches (the Table II security analytics behind
	// scheme construction) outside the timed region so ns/op reflects
	// steady-state simulation cost rather than first-call setup.
	pt.Build(geo, o.Duration)
	b.ResetTimer()
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		p, dm, mc := pt.Build(geo, o.Duration)
		cfg := sim.Config{
			Params: p, Geometry: geo, DeviceMit: dm, MCSide: mc,
			Hammer:     hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
			Workload:   trace.Generators(profiles, geo, o.Seed),
			Duration:   o.Duration,
			FullRescan: rescan,
			NoTimeSkip: pertick,
		}
		if flighted {
			// The always-on config: metrics plus a flight ring, no spans
			// and no growable event log.
			rec := obs.NewRecorder(obs.Options{Metrics: true, Flight: flight.NewRing(flight.DefaultCapacity)})
			cfg.Probe = rec.NewTrack(string(scheme))
		}
		if probed {
			rec := obs.NewRecorder(obs.Options{Metrics: true})
			cfg.Probe = rec.NewTrack(string(scheme))
			cfg.Spans = span.NewCollector(0)
		}
		var err error
		if res, err = sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sims/sec")
	// A lane named after a scheme must time that scheme at work, not the
	// baseline under another name.
	if st := res.MC; scheme != exp.Baseline && st.RFMs+st.Swaps+st.TRRs == 0 && st.BlockedTime == 0 {
		b.Fatalf("%s never acted (0 RFMs, swaps, TRRs and blocked time): the lane times baseline", scheme)
	}
}

// BenchmarkTable2 regenerates Table II: SHADOW's rank-year bit-flip
// probability across RAAIMT x H_cnt via the Appendix XI analytics.
func BenchmarkTable2(b *testing.B) {
	var secure int
	for i := 0; i < b.N; i++ {
		secure = 0
		for _, raaimt := range []int{128, 64, 32} {
			for _, hcnt := range []int{8192, 4096, 2048} {
				if security.DefaultConfig(hcnt, raaimt).Secure() {
					secure++
				}
			}
		}
	}
	b.ReportMetric(float64(secure), "secure-cells")
	b.ReportMetric(security.DefaultConfig(4096, 64).BitFlipProbability(), "p(4K,64)")
}

// BenchmarkTable3 regenerates Table III: the circuit model's SHADOW timings.
func BenchmarkTable3(b *testing.B) {
	p := timing.NewParams(timing.DDR4_2666)
	var r circuit.Results
	for i := 0; i < b.N; i++ {
		r = circuit.DefaultModel().Evaluate(p)
	}
	b.ReportMetric(r.TRCDShadow, "tRCD'-ns")
	b.ReportMetric(r.TRDRM, "tRD_RM-ns")
	b.ReportMetric(r.RowCopy, "rowcopy-ns")
}

// BenchmarkFig8 regenerates Figure 8: relative performance of the
// RFM-compatible schemes at H_cnt 4K on the paper's workload groups.
func BenchmarkFig8(b *testing.B) {
	var points []exp.PerfPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, _, err = exp.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	report := map[string]float64{}
	for _, p := range points {
		if p.Scheme == exp.Shadow {
			report[p.Workload] = p.Rel
		}
	}
	b.ReportMetric(report["mix-high"], "shadow-mix-high")
	b.ReportMetric(report["spec-HIGH"], "shadow-spec-high")
}

// BenchmarkFig9 regenerates Figure 9: SHADOW's tRCD sensitivity sweep.
func BenchmarkFig9(b *testing.B) {
	var points []exp.PerfPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, _, err = exp.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 1.0
	for _, p := range points {
		if p.Rel < worst {
			worst = p.Rel
		}
	}
	b.ReportMetric(worst, "worst-ws")
}

// BenchmarkFig10 regenerates Figure 10: the blast-radius sweep.
func BenchmarkFig10(b *testing.B) {
	var points []exp.PerfPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, _, err = exp.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	at5 := map[exp.Scheme]float64{}
	for _, p := range points {
		if p.Blast == 5 && p.Workload == "mix-high" {
			at5[p.Scheme] = p.Rel
		}
	}
	b.ReportMetric(at5[exp.Shadow], "shadow-blast5")
	b.ReportMetric(at5[exp.PARFM], "parfm-blast5")
}

// BenchmarkFig11 regenerates Figure 11 at a reduced sweep (the tracker
// schemes need millisecond horizons): SHADOW vs BlockHammer vs RRS at the
// low-H_cnt corner where the paper's crossover happens.
func BenchmarkFig11(b *testing.B) {
	o := exp.RunOpts{Duration: 300 * timing.Microsecond, Warmup: 900 * timing.Microsecond, Cores: 4, Subarrays: 8, Seed: 5}
	rel := map[exp.Scheme]float64{}
	for i := 0; i < b.N; i++ {
		for _, s := range []exp.Scheme{exp.Shadow, exp.BlockHammer, exp.RRS} {
			ws, _, err := exp.RunPoint(exp.Point{Scheme: s, HCnt: 2048, Grade: timing.DDR5_4800, Seed: 5}, trace.MixHigh(o.Cores), o)
			if err != nil {
				b.Fatal(err)
			}
			rel[s] = ws
		}
	}
	b.ReportMetric(rel[exp.Shadow], "shadow-2K")
	b.ReportMetric(rel[exp.BlockHammer], "blockhammer-2K")
	b.ReportMetric(rel[exp.RRS], "rrs-2K")
}

// BenchmarkFig12 regenerates Figure 12: relative system power and RFM/REF.
func BenchmarkFig12(b *testing.B) {
	var points []exp.PowerPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, _, err = exp.Fig12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Workload == "mix-high" && p.HCnt == 2048 {
			b.ReportMetric((p.RelPower-1)*100, "power-incr-%")
			b.ReportMetric(p.RFMPerREF, "rfm/ref")
		}
	}
}

// BenchmarkAdversarial regenerates the Section VII-C worst-case bounds.
func BenchmarkAdversarial(b *testing.B) {
	var res exp.AdversarialResult
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = exp.Adversarial(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TRCDOnly, "trcd-only")
	b.ReportMetric(res.Full, "max-rfm")
}

// BenchmarkAreaPower regenerates the Section VII-D overhead numbers.
func BenchmarkAreaPower(b *testing.B) {
	g := dram.DefaultGeometry(true)
	var area, capacity float64
	for i := 0; i < b.N; i++ {
		m := power.DefaultAreaModel()
		area = m.AreaOverhead(g)
		capacity = m.CapacityOverhead(g)
	}
	b.ReportMetric(area*100, "area-%")
	b.ReportMetric(capacity*100, "capacity-%")
}

// BenchmarkAblationIncrementalRefresh measures the protection value of the
// incremental refresh (DESIGN.md ablation): flips under a scenario-I-style
// attack with and without it, at a samplable operating point.
func BenchmarkAblationIncrementalRefresh(b *testing.B) {
	flips := map[bool]int{}
	for i := 0; i < b.N; i++ {
		for _, incOff := range []bool{false, true} {
			geo := dram.TestGeometry()
			p := timing.NewParams(timing.DDR4_2666).
				WithShadow(circuit.DefaultShadowTimings(timing.NewParams(timing.DDR4_2666))).
				WithRAAIMT(16)
			res, err := sim.RunAttack(sim.AttackConfig{
				Params:   p,
				Geometry: geo,
				Hammer:   hammer.Config{HCnt: 192, BlastRadius: 3},
				DeviceMit: shadow.New(shadow.Options{
					Seed:                      uint64(i) + 1,
					DisableIncrementalRefresh: incOff,
				}),
				MaxActs:  60000,
				Duration: timing.Forever / 2,
			}, trace.NewScenarioII(0, 1, 4, geo, uint64(i)+1))
			if err != nil {
				b.Fatal(err)
			}
			flips[incOff] += res.Flips
		}
	}
	b.ReportMetric(float64(flips[false]), "flips-with-incref")
	b.ReportMetric(float64(flips[true]), "flips-without")
}

// BenchmarkAblationRFMFilter measures the Section VIII RFM-filter extension:
// RFMs issued with and without the filter on a benign workload.
func BenchmarkAblationRFMFilter(b *testing.B) {
	var with, without int64
	for i := 0; i < b.N; i++ {
		for _, filtered := range []bool{false, true} {
			base := timing.NewParams(timing.DDR4_2666)
			p := base.WithShadow(circuit.DefaultShadowTimings(base)).WithRAAIMT(32)
			geo := exp.RunOpts{Subarrays: 8}.Geometry(timing.DDR4_2666)
			var filter *mitigate.RFMFilter
			if filtered {
				filter = mitigate.NewRFMFilter(1024, 4, 16, p.REFW)
			}
			res, err := sim.Run(sim.Config{
				Params:    p,
				Geometry:  geo,
				Hammer:    hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
				DeviceMit: shadow.New(shadow.Options{Seed: 9}),
				RFMFilter: filter,
				Workload:  trace.Generators(trace.MixBlend(4), geo, 9),
				Duration:  60 * timing.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			if filtered {
				with = res.MC.RFMs
			} else {
				without = res.MC.RFMs
			}
		}
	}
	b.ReportMetric(float64(without), "rfms-unfiltered")
	b.ReportMetric(float64(with), "rfms-filtered")
}

// BenchmarkShadowShuffleOp measures the raw software cost of one row-shuffle
// (table decode, two row copies, table update) — the hot path of the
// mitigation itself.
func BenchmarkShadowShuffleOp(b *testing.B) {
	ctrl := shadow.New(shadow.Options{Seed: 1})
	p := timing.NewParams(timing.DDR4_2666).WithRAAIMT(4)
	d := dram.MustNewDevice(dram.Config{
		Geometry:  dram.TestGeometry(),
		Params:    p,
		Hammer:    hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
		Mitigator: ctrl,
	})
	now := timing.Tick(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Activate(0, i%32, now); err != nil {
			b.Fatal(err)
		}
		now += p.RAS
		if err := d.Precharge(0, now); err != nil {
			b.Fatal(err)
		}
		now += p.RP
		if d.Bank(0).RAA >= p.RAAIMT {
			if err := d.RFM(0, now); err != nil {
				b.Fatal(err)
			}
			now += p.RFM
		}
	}
}

// BenchmarkAblationPairingDistance compares the adjacent (distance-1) and
// open-bitline (distance-2) subarray pairings: protection must be identical
// (the pairing only changes which physical row holds the table).
func BenchmarkAblationPairingDistance(b *testing.B) {
	flips := map[int]int{}
	for i := 0; i < b.N; i++ {
		for _, dist := range []int{1, 2} {
			res, err := sim.RunAttack(sim.AttackConfig{
				Params:    timing.NewParams(timing.DDR4_2666).WithRAAIMT(16),
				Geometry:  dram.TestGeometry(),
				Hammer:    hammer.Config{HCnt: 512, BlastRadius: 3},
				DeviceMit: shadow.New(shadow.Options{Seed: uint64(i) + 1, PairDistance: dist}),
				MaxActs:   30000,
				Duration:  timing.Forever / 2,
			}, &trace.DoubleSided{Bank: 0, Victim: 16})
			if err != nil {
				b.Fatal(err)
			}
			flips[dist] += res.Flips
		}
	}
	b.ReportMetric(float64(flips[1]), "flips-dist1")
	b.ReportMetric(float64(flips[2]), "flips-dist2")
}

// BenchmarkTemplatingDecay measures how fast SHADOW rots an attacker's
// adjacency template (Section III-A).
func BenchmarkTemplatingDecay(b *testing.B) {
	var half int64
	for i := 0; i < b.N; i++ {
		points, err := security.MeasureTemplatingDecay(security.TemplatingConfig{
			RowsPerSubarray: 128,
			RAAIMT:          32,
			Checkpoints:     []int64{0, 16, 32, 64, 128, 256},
			Seed:            uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		half = points[len(points)-1].Shuffles
		for _, p := range points {
			if p.ValidFraction <= 0.5 {
				half = p.Shuffles
				break
			}
		}
	}
	b.ReportMetric(float64(half), "shuffles-to-half-validity")
}

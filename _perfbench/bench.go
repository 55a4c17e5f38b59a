package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"shadow/internal/exp"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string // where a traced run writes its spans ("" = nowhere)
	root     string // repository root, for the fingerprint
	scale    scale
	// coldSetup times one build of every point in a fresh process, so the
	// memoized Table II analytics are paid each time; setupRuns samples it.
	coldSetup func(*workload) (setupTime, error)
	setupRuns int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the human-facing record printed before the result: the host
// fingerprint, every pass's timings and every rejected output.
type report struct {
	Workload string              `json:"workload"`
	Seed     uint64              `json:"seed"`
	Trace    bool                `json:"trace"`
	Host     host                `json:"host"`
	SetupS   []float64           `json:"setup_s,omitempty"` // host seconds
	Passes   []passReport        `json:"passes"`
	Failures map[string][]string `json:"failures,omitempty"`
}

type passReport struct {
	Mode  string  `json:"mode"`
	WallS float64 `json:"wall_s"`                // host seconds
	NormS float64 `json:"norm_wall_s,omitempty"` // seconds at the reference speed
	Cmds  int64   `json:"cmds"`
	Alloc uint64  `json:"alloc_bytes"`
}

// pass is one sequential run of every point of a workload.
type pass struct {
	name  string
	outs  []outcome
	wall  time.Duration // the points' host time, reference samples excluded
	alloc uint64
	// norm is each point's host time in seconds of the host's reference
	// speed (see ref.go). Only passes run with a reference kernel have it.
	norm []float64
}

func (p *pass) cmds() int64 {
	var n int64
	for i := range p.outs {
		n += p.outs[i].cmds()
	}
	return n
}

// runPass runs the workload's points in order on the calling goroutine. The
// heap is collected first so every pass starts from the same state. With a
// reference kernel k, a reference sample is taken before the first point and
// after every point, and each point's time is normalized by the mean of the
// samples on either side of it.
func runPass(w *workload, name string, m mode, k *refKernel) pass {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	p := pass{name: name, outs: make([]outcome, len(w.points))}
	var before time.Duration
	if k != nil {
		p.norm = make([]float64, len(w.points))
		before = k.sample()
	}
	for i := range w.points {
		s := time.Now()
		p.outs[i] = runPoint(&w.points[i], w.seed, m)
		d := time.Since(s)
		p.wall += d
		if k != nil {
			after := k.sample()
			p.norm[i] = normalize(d, before, after)
			before = after
		}
	}
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - alloc0
	return p
}

// buildAll builds every point once, as the timed passes do before each
// point's first simulated tick.
func buildAll(w *workload) time.Duration {
	start := time.Now()
	for i := range w.points {
		p := &w.points[i]
		p.pt.Build(p.geo, p.duration)
		if !p.attack {
			trace.Generators(p.profiles, p.geo, w.seed)
		}
	}
	return time.Since(start)
}

// setupTime is one cold set-up in seconds: as measured, and scaled to the
// reference speed by samples taken in the same process around it.
type setupTime struct{ Raw, Norm float64 }

// timeSetup builds every point once between two reference samples.
func timeSetup(w *workload, k *refKernel) setupTime {
	before := k.sample()
	d := buildAll(w)
	return setupTime{Raw: d.Seconds(), Norm: normalize(d, before, k.sample())}
}

// bench runs the benchmark and returns its result and report.
func bench(o options) (*result, *report, error) {
	w, err := newWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{Workload: w.name, Seed: w.seed, Trace: o.trace, Host: fingerprint(o.root), Failures: map[string][]string{}}
	res := &result{Metrics: map[string]metric{}}
	if o.trace {
		err = traced(w, o, res, rep)
	} else {
		err = untraced(w, o, res, rep)
	}
	if err != nil {
		return nil, nil, err
	}
	res.Correct = res.Failed == 0
	return res, rep, nil
}

// tallyFailures records a run's failures and counts its points.
func tallyFailures(res *result, rep *report, w *workload, run string, f failures) {
	res.Attempted += len(w.points)
	res.Failed += len(f)
	for i, msgs := range f {
		key := run + "/" + w.points[i].label
		rep.Failures[key] = append(rep.Failures[key], msgs...)
	}
}

// untraced measures the end-to-end metrics: cold set-up in fresh processes,
// then back-to-back passes until the time budget is spent (the last pass
// may overrun it).
func untraced(w *workload, o options, res *result, rep *report) error {
	var setups []float64
	for i := 0; i < o.setupRuns; i++ {
		st, err := o.coldSetup(w)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st.Norm)
		rep.SetupS = append(rep.SetupS, st.Raw)
	}
	k := newRefKernel()
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var passes []pass
	for {
		p := runPass(w, fmt.Sprintf("pass%d", len(passes)), mode{}, k)
		f := checkPass(w, p.outs)
		if len(passes) > 0 {
			checkSame(f, "repeat of pass0", passes[0].outs, p.outs)
		}
		tallyFailures(res, rep, w, p.name, f)
		passes = append(passes, p)
		rep.Passes = append(rep.Passes, passReport{Mode: "untraced", WallS: p.wall.Seconds(), NormS: sum(p.norm), Cmds: p.cmds(), Alloc: p.alloc})
		if time.Since(start) >= budget {
			break
		}
	}

	// Each point's normalized time is its median over passes; a pass is the
	// sum over points. Every pass simulates the same commands (checkSame).
	var wall float64
	for i := range w.points {
		var v []float64
		for j := range passes {
			v = append(v, passes[j].norm[i])
		}
		wall += median(v)
	}
	var allocs []float64
	for i := range passes {
		allocs = append(allocs, float64(passes[i].alloc)/1e6)
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("wall_s", "s", wall)
	put("cmds_per_s", "1/s", float64(passes[0].cmds())/wall)
	put("setup_s", "s", median(setups))
	// A warm pass allocates exactly the same bytes every time; the first
	// pass also fills the process's memoized analytics, so the minimum is the
	// steady per-pass figure whatever the number of passes.
	put("alloc_mb", "MB", slices.Min(allocs))
	put("max_rss_mb", "MB", float64(maxRSS())/1e6)
	put("shadow_rel_perf", "ratio", safeRelPerf(w, passes[0].outs))
	return nil
}

// safeRelPerf is relPerf, or 0 when a point needed for it did not run.
func safeRelPerf(w *workload, outs []outcome) float64 {
	for i := range outs {
		if outs[i].err != nil {
			return 0
		}
	}
	if v := relPerf(w, outs); !math.IsNaN(v) && !math.IsInf(v, 0) {
		return v
	}
	return 0
}

// traced measures the per-layer metrics. An untraced pass and a traced pass
// give the layer timings and the tracing overhead; a hashed pair of passes
// and a repeated point prove the taps change no simulated result.
func traced(w *workload, o options, res *result, rep *report) error {
	plain := runPass(w, "untraced", mode{}, nil)
	tapped := runPass(w, "traced", mode{traced: true}, nil)
	hashed := runPass(w, "untraced-hashed", mode{hashed: true}, nil)
	both := runPass(w, "traced-hashed", mode{traced: true, hashed: true}, nil)
	passes := []*pass{&plain, &tapped, &hashed, &both}
	fs := make([]failures, len(passes))
	for i, p := range passes {
		fs[i] = checkPass(w, p.outs)
		rep.Passes = append(rep.Passes, passReport{Mode: p.name, WallS: p.wall.Seconds(), Cmds: p.cmds(), Alloc: p.alloc})
	}
	checkSame(fs[1], "traced vs untraced", plain.outs, tapped.outs)
	checkSame(fs[2], "hashed vs untraced", plain.outs, hashed.outs)
	checkSame(fs[3], "traced vs untraced, command hash", hashed.outs, both.outs)
	for i, p := range passes {
		tallyFailures(res, rep, w, p.name, fs[i])
	}
	// A repeated same-seed run of the first mitigated point must reproduce
	// its command hash.
	ri := 1
	again := runPoint(&w.points[ri], w.seed, mode{hashed: true})
	rf := failures{}
	if again.err != nil || !again.same(&hashed.outs[ri]) {
		rf.add(ri, "repeated same-seed run differs (%v)", again.err)
	}
	res.Attempted++
	res.Failed += len(rf)
	for i, msgs := range rf {
		rep.Failures["repeat/"+w.points[i].label] = msgs
	}

	layerMetrics(&plain, &tapped, res.Metrics)
	if o.spansDir != "" {
		if err := writeSpans(o.spansDir, w, rep, &tapped); err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the traced pass. Set-up
// (exp.build_s) comes from the first untraced pass, whose builds are cold.
func layerMetrics(plain, tapped *pass, m map[string]metric) {
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	// sum covers every point; the others the points of one scheme family.
	var sum, rrs, bh, sh, dev taps
	var run, build time.Duration
	var flips, rowCopies, readLatency, completedReads int64
	var ipcSum float64
	var ipcN int
	var simulated float64
	var mc struct{ acts, cas, refs, rfms, swaps, trrs, cmds int64 }
	var blocked float64
	for i := range tapped.outs {
		o := &tapped.outs[i]
		build += plain.outs[i].build
		run += o.run
		if t := o.taps; t != nil {
			sum.add(t)
			switch o.scheme {
			case exp.RRS:
				rrs.add(t)
			case exp.BlockHammer:
				bh.add(t)
			case exp.Shadow:
				sh.add(t)
			default:
				dev.add(t)
			}
		}
		flips += int64(o.flips)
		rowCopies += o.dev.RowCopies
		mc.acts += o.mc.Acts
		mc.cas += o.mc.Reads + o.mc.Writes
		mc.refs += o.mc.Refs
		mc.rfms += o.mc.RFMs
		mc.swaps += o.mc.Swaps
		mc.trrs += o.mc.TRRs
		mc.cmds += o.cmds()
		blocked += float64(o.mc.BlockedTime.Nanoseconds()) / 1e3
		readLatency += int64(o.mc.ReadLatency)
		completedReads += o.mc.CompletedReads
		simulated += o.simulated.Nanoseconds() / 1e3
		if len(o.ipc) > 0 {
			s := 0.0
			for _, v := range o.ipc {
				s += v
			}
			ipcSum += s
			ipcN++
		}
	}

	put("mitigate.mc.on_act_calls", "count", float64(sum.b[mcOnACT].Calls))
	put("mitigate.mc.on_act_s", "s", sum.b[mcOnACT].Busy.Seconds())
	put("mitigate.mc.act_allowed_calls", "count", float64(sum.b[mcAllowed].Calls))
	put("mitigate.mc.act_allowed_s", "s", sum.b[mcAllowed].Busy.Seconds())
	put("mitigate.mc.next_event_calls", "count", float64(sum.b[mcNext].Calls))
	put("mitigate.mc.actions", "count", float64(sum.mcActions))
	put("mitigate.mc.action_ratio", "ratio", ratio(float64(sum.mcActions), float64(sum.b[mcOnACT].Calls)))
	put("mitigate.rrs.busy_s", "s", rrs.mcBusy().Seconds())
	put("mitigate.blockhammer.busy_s", "s", bh.mcBusy().Seconds())
	put("shadow.on_rfm_calls", "count", float64(sh.b[devOnRFM].Calls))
	put("shadow.on_rfm_s", "s", sh.b[devOnRFM].Busy.Seconds())
	put("shadow.translate_calls", "count", float64(sh.b[devTranslate].Calls))
	put("shadow.busy_s", "s", sh.devBusy().Seconds())
	put("mitigate.dev.busy_s", "s", dev.devBusy().Seconds())
	put("dram.row_copies", "count", float64(rowCopies))
	put("trace.next_calls", "count", float64(sum.b[genNext].Calls))
	put("trace.busy_s", "s", sum.b[genNext].Busy.Seconds())
	self := run - sum.busy(0, numBoundaries)
	put("sim.run_s", "s", run.Seconds())
	put("sim.self_s", "s", self.Seconds())
	put("sim.host_ns_per_cmd", "ns", ratio(float64(self.Nanoseconds()), float64(mc.cmds)))
	put("exp.build_s", "s", build.Seconds())
	put("memctrl.acts", "count", float64(mc.acts))
	put("memctrl.cas", "count", float64(mc.cas))
	put("memctrl.refs", "count", float64(mc.refs))
	put("memctrl.rfms", "count", float64(mc.rfms))
	put("memctrl.swaps", "count", float64(mc.swaps))
	put("memctrl.trrs", "count", float64(mc.trrs))
	put("memctrl.blocked_us", "us", blocked)
	put("memctrl.read_latency_ns", "ns", ratio(float64(readLatency), float64(completedReads))*timing.Tick(1).Nanoseconds())
	// Stats.RowHits is never incremented and Stats.RowMisses always equals
	// Acts, so the hit ratio is derived: every CAS without its own ACT hit
	// an open row.
	put("memctrl.row_hit_ratio", "ratio", 1-ratio(float64(mc.acts), float64(mc.cas)))
	put("hammer.flips", "count", float64(flips))
	put("sim.ipc", "inst/ns", ratio(ipcSum, float64(ipcN)))
	put("sim.simulated_us", "us", simulated)
	put("trace_overhead", "ratio", tapped.wall.Seconds()/plain.wall.Seconds())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one interval of the traced run: the workload pass, a point, or
// the point's sim.Run/RunAttack call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerAgg is one (point, layer) aggregate of per-call boundaries.
type layerAgg struct {
	Point string `json:"point"`
	Layer string `json:"layer"`
	tally
}

// writeSpans writes the traced pass's spans and per-layer aggregates, kept
// in memory during the run, as one JSON file.
func writeSpans(dir string, w *workload, rep *report, tapped *pass) error {
	var spans []span
	var aggs []layerAgg
	var first, last time.Duration
	for i := range tapped.outs {
		o := &tapped.outs[i]
		if i == 0 || o.start < first {
			first = o.start
		}
		if o.end > last {
			last = o.end
		}
	}
	spans = append(spans, span{ID: 1, Name: "workload " + w.name, Start: first.Nanoseconds(), End: last.Nanoseconds()})
	for i := range tapped.outs {
		o := &tapped.outs[i]
		pid := len(spans) + 1
		spans = append(spans, span{ID: pid, Parent: 1, Name: "point " + o.label, Start: o.start.Nanoseconds(), End: o.end.Nanoseconds()})
		runName := "sim.Run"
		if w.points[i].attack {
			runName = "sim.RunAttack"
		}
		spans = append(spans, span{ID: len(spans) + 1, Parent: pid, Name: runName, Start: o.runStart.Nanoseconds(), End: (o.runStart + o.run).Nanoseconds()})
		if t := o.taps; t != nil {
			for b, tl := range t.b {
				if tl.Calls > 0 {
					aggs = append(aggs, layerAgg{Point: o.label, Layer: boundaryNames[b], tally: tl})
				}
			}
		}
	}
	doc := struct {
		Report *report    `json:"report"`
		Spans  []span     `json:"spans"`
		Layers []layerAgg `json:"layers"`
	}{rep, spans, aggs}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", w.name, w.seed)), b, 0o644)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

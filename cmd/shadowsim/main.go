// Command shadowsim runs one system simulation: a workload on a DRAM rank
// under a chosen Row Hammer mitigation, reporting performance and device
// statistics.
//
// Usage:
//
//	shadowsim -scheme shadow -workload mix-high -hcnt 4096 -duration-us 200
//	shadowsim -scheme baseline -workload mcf -grade ddr5
//	shadowsim -scheme shadow -trace-out t.json -metrics-out m.json -timeline
//	shadowsim -list   # show available workloads, schemes, and attacks
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"shadow/internal/cmdtrace"
	"shadow/internal/dram"
	"shadow/internal/exp"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/report"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// attackNames lists the -attack patterns, in -list order.
var attackNames = []string{"single-sided", "double-sided", "blast", "half-double"}

func main() {
	scheme := flag.String("scheme", "shadow", "mitigation scheme")
	workload := flag.String("workload", "mix-high", "workload: mix-high, mix-blend, mix-random, random-stream, a profile name, or replay:<file.csv>")
	hcnt := flag.Int("hcnt", 4096, "Row Hammer threshold")
	blast := flag.Int("blast", 3, "blast radius")
	grade := flag.String("grade", "ddr4", "speed grade: ddr4 or ddr5")
	cores := flag.Int("cores", 4, "cores for multiprogrammed mixes")
	durationUS := flag.Int("duration-us", 200, "simulated duration, microseconds")
	seed := flag.Uint64("seed", 1, "seed")
	attack := flag.String("attack", "", "run an attack instead of a workload: "+strings.Join(attackNames, ", "))
	verifyProtocol := flag.Bool("verify-protocol", false, "validate the MC's command stream with the independent JEDEC checker")
	acts := flag.Int64("acts", 1<<16, "attack activation budget")
	list := flag.Bool("list", false, "list workloads, schemes, and attacks")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (open in ui.perfetto.dev)")
	metricsOut := flag.String("metrics-out", "", "write the metrics dump (.csv suffix selects CSV, else JSON)")
	timeline := flag.Bool("timeline", false, "print time-series strip charts after the run")
	progress := flag.Bool("progress", false, "print a stderr progress heartbeat")
	blame := flag.Bool("blame", false, "print the shadowtap stall-blame breakdown after the run")
	inspect := flag.String("inspect", "", "serve a live run inspector on this address (e.g. :8080)")
	flightCap := flag.Int("flight", flight.DefaultCapacity, "flight recorder capacity in events (0 disables the always-on flight lane)")
	flightOut := flag.String("flight-out", "", "write the flight-recorder dump (event window + watchdog trip) to this JSON file at exit")
	stallP99US := flag.Int64("stall-p99-us", 0, "arm the stall-spike watchdog: trip when the p99 request stall over the trailing window exceeds this many simulated microseconds (0 disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	flag.Parse()

	if *list {
		fmt.Println("schemes: baseline", strings.Join(schemeNames(), " "))
		fmt.Println("workloads: mix-high mix-blend mix-random random-stream", strings.Join(trace.Names(), " "))
		fmt.Println("attacks:", strings.Join(attackNames, " "))
		return
	}

	startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()

	g := timing.DDR4_2666
	if *grade == "ddr5" {
		g = timing.DDR5_4800
	}
	o := exp.RunOpts{Duration: timing.Tick(*durationUS) * timing.Microsecond, Cores: *cores, Seed: *seed}
	geo := o.Geometry(g)

	// The flight recorder is the always-on telemetry lane: a fixed ring of
	// the last -flight hot-path events, recorded at zero allocations, dumped
	// when a watchdog trips, the process panics, or -flight-out asks for it.
	var ring *flight.Ring
	if *flightCap > 0 {
		ring = flight.NewRing(*flightCap)
	}
	watch := flight.NewWatch(ring)
	defer func() {
		// Deferred dump on panic: the ring holds the events leading up to
		// the failure even when no watchdog fired.
		if r := recover(); r != nil {
			watch.Ring().Freeze()
			dumpFlightOnPanic(watch, *flightOut)
			panic(r) //shadowvet:ignore panicmsg -- re-raising the original panic value after the flight dump
		}
	}()

	var rec *obs.Recorder
	var probe *obs.Probe
	needMetrics := *metricsOut != "" || *timeline || *inspect != ""
	if *traceOut != "" || needMetrics || ring != nil {
		rec = obs.NewRecorder(obs.Options{
			Metrics: needMetrics,
			Events:  *traceOut != "",
			Flight:  ring,
		})
		label := *scheme + "/" + *workload
		if *attack != "" {
			label = *scheme + "/attack:" + *attack
		}
		probe = rec.NewTrack(label)
	}

	if *attack != "" {
		runAttack(*attack, exp.Scheme(*scheme), g, geo, *hcnt, *blast, *acts, *seed, o.Duration, probe)
		writeObs(rec, *traceOut, *metricsOut)
		if *timeline {
			printTimeline(rec, 0)
		}
		// Attack runs dump the window on request but arm no watchdogs:
		// bit flips are the experiment, not an anomaly.
		writeFlightFile(watch, *flightOut)
		return
	}

	var profiles []trace.Profile
	if !strings.HasPrefix(*workload, "replay:") {
		var err error
		profiles, err = resolveWorkload(*workload, *cores, geo)
		exitOn(err)
	}

	var workloads []trace.Generator
	var names []string
	if strings.HasPrefix(*workload, "replay:") {
		path := strings.TrimPrefix(*workload, "replay:")
		f, err := os.Open(path)
		exitOn(err)
		events, err := trace.ReadEvents(f)
		exitOn(err)
		exitOn(f.Close())
		if n := trace.ClampEvents(events, geo.Banks, geo.PARowsPerBank()); n > 0 {
			fmt.Printf("note: folded %d events into the %d-bank/%d-row geometry\n", n, geo.Banks, geo.PARowsPerBank())
		}
		r, err := trace.NewReplay(path, events)
		exitOn(err)
		workloads = []trace.Generator{r}
		names = []string{path}
	} else {
		workloads = trace.Generators(profiles, geo, *seed)
		for _, p := range profiles {
			names = append(names, p.Name)
		}
	}

	pt := exp.Point{Scheme: exp.Scheme(*scheme), HCnt: *hcnt, Blast: *blast, Grade: g, Seed: *seed}
	p, dm, mc := pt.Build(geo, o.Duration)
	var checker *cmdtrace.Checker
	var onCmd func(int, memctrl.Cmd)
	if *verifyProtocol {
		checker = cmdtrace.New(p, geo.Banks)
		onCmd = func(ch int, c memctrl.Cmd) { checker.Observe(c) }
	}
	var hb *obs.Heartbeat
	var progressFn func(timing.Tick)
	if *progress {
		hb = obs.NewHeartbeat(os.Stderr, *scheme+"/"+*workload, o.Duration, time.Now)
		if rec != nil {
			hb = hb.WithEvents(rec.EventCount)
		}
		progressFn = hb.Tick
	}

	var spans *span.Collector
	if *blame || *inspect != "" {
		spans = span.NewCollector(0)
	}

	// Arm the anomaly watchdogs. A trip freezes the ring at that moment so
	// the dump shows the events leading up to the anomaly, not its aftermath.
	if ring != nil {
		watch.Add(flight.FlipDetector(ring))
		if spans != nil {
			watch.Add(flight.Conservation(spans.Aggregate))
		}
		if *stallP99US > 0 {
			watch.Add(flight.StallSpike(ring, 10*timing.Microsecond,
				timing.Tick(*stallP99US)*timing.Microsecond))
		}
		watch.OnTrip(func(tr flight.Trip) {
			fmt.Fprintf(os.Stderr, "watchdog %s tripped at %d ps: %s (flight ring frozen)\n",
				tr.Watchdog, tr.AtPS, tr.Detail)
		})
		tick := progressFn
		progressFn = func(now timing.Tick) {
			if tick != nil {
				tick(now)
			}
			watch.Check(now)
		}
	}

	var ins *obs.Inspector
	var insShutdown func()
	if *inspect != "" {
		label := *scheme + "/" + *workload
		ins, insShutdown = startInspector(*inspect, label, rec, spans, watch)
		tick := progressFn
		total := o.Duration
		progressFn = func(now timing.Tick) {
			if tick != nil {
				tick(now)
			}
			ins.Observe(label, now, total)
		}
	}

	res, err := sim.Run(sim.Config{
		Params: p, Geometry: geo, DeviceMit: dm, MCSide: mc,
		Hammer:    hammer.Config{HCnt: *hcnt, BlastRadius: *blast},
		Workload:  workloads,
		Duration:  o.Duration,
		OnCommand: onCmd,
		Probe:     probe,
		Spans:     spans,
		Progress:  progressFn,
	})
	hb.Done()
	ins.Done()
	exitOn(err)
	// Final watchdog pass at run end: conservation over the complete span
	// aggregate, flips from the last progress interval.
	watch.Check(o.Duration)

	fmt.Printf("scheme=%s workload=%s grade=%v hcnt=%d blast=%d duration=%v\n",
		*scheme, *workload, g, *hcnt, *blast, o.Duration)
	fmt.Printf("RAAIMT=%d tRCD'=%v tRFM=%v\n", p.RAAIMT, p.EffectiveRCD(), p.RFM)
	for i, ipc := range res.IPC {
		fmt.Printf("core %2d (%-12s): IPC %.3f inst/ns (%d instructions)\n",
			i, names[i], ipc, res.Insts[i])
	}
	s := res.MC
	fmt.Printf("MC: acts=%d reads=%d writes=%d pres=%d refs=%d rfms=%d swaps=%d\n",
		s.Acts, s.Reads, s.Writes, s.Pres, s.Refs, s.RFMs, s.Swaps)
	fmt.Printf("    row-hit rate %.1f%%, avg read latency %v, channel blocked %v\n",
		s.RowHitRate()*100, s.AvgReadLatency(), s.BlockedTime)
	d := res.Dev
	fmt.Printf("device: row-copies=%d refreshed-rows=%d bit-flips=%d\n",
		d.RowCopies, d.RefRows, res.Flips)
	if checker != nil {
		if err := checker.Err(); err != nil {
			fmt.Printf("protocol: %v\n", err)
			stopProfiles()
			os.Exit(1)
		}
		fmt.Printf("protocol: %d commands verified, 0 violations\n", checker.Commands())
	}
	if *blame {
		agg := spans.Aggregate()
		label := *scheme + "/" + *workload
		fmt.Println()
		fmt.Print(report.BlameTable("stall blame (percent of resident time per cause)",
			[]report.BlameRow{{Label: label, Agg: agg}}))
		fmt.Println()
		fmt.Print(report.CriticalPath(label, agg))
	}
	writeObs(rec, *traceOut, *metricsOut)
	if *timeline {
		printTimeline(rec, o.Duration)
	}
	writeFlightFile(watch, *flightOut)
	if insShutdown != nil {
		insShutdown()
	}
	if tr := watch.Tripped(); tr != nil {
		stopProfiles()
		os.Exit(1)
	}
}

// startInspector wires an obs.Inspector to the recorder, span collector, and
// flight watch, and serves it in the background. Sources run only on the
// simulation goroutine (inside Observe); handlers serve cached snapshots.
// The returned shutdown func drains the server gracefully once the run (and
// its final snapshot) is complete.
func startInspector(addr, label string, rec *obs.Recorder, spans *span.Collector, watch *flight.Watch) (*obs.Inspector, func()) {
	ins := obs.NewInspector(time.Now)
	src := obs.InspectorSources{
		Blame: func() []byte {
			return report.BlameJSON([]report.BlameRow{{Label: label, Agg: spans.Aggregate()}})
		},
	}
	if rec != nil {
		src.Events = rec.EventCount
		if m := rec.Metrics(); m != nil {
			src.Metrics = func() []byte {
				var b strings.Builder
				if err := m.WriteJSON(&b); err != nil {
					return nil
				}
				return []byte(b.String())
			}
			src.Prom = func() []byte {
				var b bytes.Buffer
				if err := m.WritePrometheus(&b); err != nil {
					return nil
				}
				return b.Bytes()
			}
		}
	}
	if watch.Ring() != nil {
		src.Flight = func() []byte {
			var b bytes.Buffer
			if err := watch.WriteDump(&b); err != nil {
				return nil
			}
			return b.Bytes()
		}
	}
	ins.SetSources(src)
	srv := &http.Server{Addr: addr, Handler: ins.Handler()}
	errc := make(chan error, 1)
	go func() {
		errc <- srv.ListenAndServe()
	}()
	fmt.Fprintf(os.Stderr, "inspector: serving on %s\n", addr)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "inspector: shutdown: %v\n", err)
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "inspector: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "inspector: shut down after final snapshot\n")
	}
	return ins, shutdown
}

// writeFlightFile writes the flight dump to path, if one was requested.
func writeFlightFile(watch *flight.Watch, path string) {
	if path == "" || watch.Ring() == nil {
		return
	}
	f, err := os.Create(path)
	exitOn(err)
	exitOn(watch.WriteDump(f))
	exitOn(f.Close())
	fmt.Printf("flight: %d of %d events preserved -> %s\n",
		watch.Ring().Len(), watch.Ring().Total(), path)
}

// dumpFlightOnPanic best-effort writes the frozen ring during a panic unwind:
// to -flight-out when given, else to stderr so the window is not lost.
func dumpFlightOnPanic(watch *flight.Watch, path string) {
	if watch.Ring() == nil {
		return
	}
	if path != "" {
		if f, err := os.Create(path); err == nil {
			watch.WriteDump(f)
			f.Close()
			fmt.Fprintf(os.Stderr, "panic: flight dump written to %s\n", path)
			return
		}
	}
	fmt.Fprintln(os.Stderr, "panic: flight dump follows")
	watch.WriteDump(os.Stderr)
}

// writeObs dumps the recorder's trace and metrics to the requested files.
func writeObs(rec *obs.Recorder, traceOut, metricsOut string) {
	if rec == nil {
		return
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		exitOn(err)
		exitOn(rec.WriteChromeTrace(f))
		exitOn(f.Close())
		fmt.Printf("trace: %d events -> %s (open in ui.perfetto.dev)\n", rec.EventCount(), traceOut)
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d events dropped past the %d-event cap; raise obs.Options.MaxEvents or shorten the run\n", n, len(rec.Events()))
		}
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		exitOn(err)
		if strings.HasSuffix(metricsOut, ".csv") {
			exitOn(rec.Metrics().WriteCSV(f))
		} else {
			exitOn(rec.Metrics().WriteJSON(f))
		}
		exitOn(f.Close())
		fmt.Printf("metrics: %s\n", metricsOut)
	}
}

// printTimeline renders every recorded time series as a terminal strip chart.
func printTimeline(rec *obs.Recorder, duration timing.Tick) {
	if rec == nil {
		return
	}
	m := rec.Metrics()
	names := m.SeriesNames()
	if len(names) == 0 {
		fmt.Println("timeline: no series recorded")
		return
	}
	span := ""
	if duration > 0 {
		span = fmt.Sprintf("0 - %v, %v/column bucket", duration, m.SampleInterval())
	}
	c := &report.StripChart{Title: "timeline", Span: span}
	for _, name := range names {
		c.Add(name, m.LookupSeries(name).Values())
	}
	fmt.Print(c.String())
}

// Profiling hooks. stopProfiles is idempotent and must run before any
// os.Exit so the pprof files are complete.
var profileState struct {
	cpu     *os.File
	memPath string
	stopped bool
}

func startProfiles(cpuPath, memPath string) {
	profileState.memPath = memPath
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		profileState.cpu = f
	}
}

func stopProfiles() {
	if profileState.stopped {
		return
	}
	profileState.stopped = true
	if profileState.cpu != nil {
		pprof.StopCPUProfile()
		profileState.cpu.Close()
	}
	if profileState.memPath != "" {
		f, err := os.Create(profileState.memPath)
		if err == nil {
			runtime.GC()
			pprof.WriteHeapProfile(f)
			f.Close()
		}
	}
}

// attackPattern builds a named attack pattern over the geometry.
func attackPattern(name string, geo dram.Geometry) (trace.Pattern, error) {
	victim := geo.RowsPerSubarray / 2
	switch name {
	case "single-sided":
		return &trace.SingleSided{Bank: 0, Row: victim}, nil
	case "double-sided":
		return &trace.DoubleSided{Bank: 0, Victim: victim}, nil
	case "blast":
		return trace.Blast(0, victim, 2), nil
	case "half-double":
		return &trace.HalfDouble{Bank: 0, Victim: victim}, nil
	}
	return nil, fmt.Errorf("unknown attack %q (have: %s)", name, strings.Join(attackNames, ", "))
}

// runAttack mounts a Row Hammer pattern against the configured device and
// reports flips plus a full integrity scrub.
func runAttack(pattern string, scheme exp.Scheme, g timing.Grade, geo dram.Geometry, hcnt, blast int, acts int64, seed uint64, duration timing.Tick, probe *obs.Probe) {
	pat, err := attackPattern(pattern, geo)
	exitOn(err)
	pt := exp.Point{Scheme: scheme, HCnt: hcnt, Blast: blast, Grade: g, Seed: seed}
	p, dm, mcside := pt.Build(geo, duration)
	res, err := sim.RunAttack(sim.AttackConfig{
		Params:    p,
		Geometry:  geo,
		Hammer:    hammer.Config{HCnt: hcnt, BlastRadius: blast},
		DeviceMit: dm,
		MCSide:    mcside,
		MaxActs:   acts,
		Duration:  timing.Forever / 2,
		Probe:     probe,
	}, pat)
	exitOn(err)
	fmt.Printf("attack=%s scheme=%s hcnt=%d blast=%d\n", pat.Name(), scheme, hcnt, blast)
	fmt.Printf("activations: %d over %v (%d RFMs)\n", res.Acts, res.Elapsed, res.MC.RFMs)
	rep := res.Device.Scrub()
	fmt.Printf("scrub: %d rows checked, %d corrupted rows, %d flipped bits\n",
		rep.RowsChecked, rep.CorruptedRows, rep.CorruptedBits)
	if rep.CorruptedRows == 0 {
		fmt.Println("result: device integrity intact")
	} else {
		fmt.Println("result: ROW HAMMER CORRUPTION")
	}
}

func resolveWorkload(name string, cores int, geo interface{ PARowsPerBank() int }) ([]trace.Profile, error) {
	switch name {
	case "mix-high":
		return trace.MixHigh(cores), nil
	case "mix-blend":
		return trace.MixBlend(cores), nil
	case "mix-random":
		return trace.MixRandom(cores, 20230223), nil
	case "random-stream":
		return []trace.Profile{{Name: "random-stream", MPKI: 200, RowLocality: 0, WriteFrac: 0.2}}, nil
	default:
		p, err := trace.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		return []trace.Profile{p}, nil
	}
}

func schemeNames() []string {
	out := make([]string, len(exp.AllSchemes))
	for i, s := range exp.AllSchemes {
		out[i] = string(s)
	}
	return out
}

func exitOn(err error) {
	if err != nil {
		stopProfiles()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

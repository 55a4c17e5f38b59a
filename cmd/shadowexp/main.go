// Command shadowexp regenerates the paper's tables and figures.
//
// Usage:
//
//	shadowexp [-experiment all|table2|table3|area|fig8|fig9|fig10|fig11|fig12|adversarial]
//	          [-duration-us N] [-warmup-us N] [-cores N] [-seed N]
//	          [-trace-out t.json] [-metrics-out m.json] [-progress]
//
// Durations default to the harness's quick settings; raise -duration-us for
// higher-fidelity runs (the paper's windows are 32 ms = 32000 us).
//
// With -trace-out or -metrics-out, every scheme run of the selected
// experiments records into one shadowscope recorder (one Perfetto track per
// operating point); probing forces the point sweep to run sequentially.
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

	"shadow/internal/exp"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/obs/span"
	"shadow/internal/report"
	"shadow/internal/timing"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	durationUS := flag.Int("duration-us", 150, "simulated duration per point, microseconds")
	warmupUS := flag.Int("warmup-us", 0, "simulated warmup per point, microseconds")
	cores := flag.Int("cores", 4, "cores per multiprogrammed mix")
	seed := flag.Uint64("seed", 1, "experiment seed")
	format := flag.String("format", "text", "output format: text or csv")
	chart := flag.Bool("chart", false, "also render performance figures as ASCII bar charts")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON covering every scheme run (forces sequential points)")
	metricsOut := flag.String("metrics-out", "", "write the metrics dump (.csv suffix selects CSV, else JSON; forces sequential points)")
	progress := flag.Bool("progress", false, "print per-experiment progress lines to stderr")
	blame := flag.Bool("blame", false, "print a shadowtap stall-blame table covering every scheme run (forces sequential points)")
	inspect := flag.String("inspect", "", "serve a live run inspector on this address (forces sequential points)")
	workers := flag.Int("workers", 0, "concurrent operating points per sweep (0 = GOMAXPROCS; probing flags still force 1)")
	flightCap := flag.Int("flight", 0, "flight recorder capacity in events (0 disables; forces sequential points)")
	flightOut := flag.String("flight-out", "", "write the flight-recorder dump to this JSON file at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the harness")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	flag.Parse()

	startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()

	o := exp.RunOpts{
		Duration: timing.Tick(*durationUS) * timing.Microsecond,
		Warmup:   timing.Tick(*warmupUS) * timing.Microsecond,
		Cores:    *cores,
		Seed:     *seed,
		Workers:  *workers,
	}
	// Flight recording is opt-in here (unlike shadowsim): attaching probes
	// forces the point sweep sequential, so the default stays parallel.
	var ring *flight.Ring
	if *flightCap > 0 {
		ring = flight.NewRing(*flightCap)
	}
	watch := flight.NewWatch(ring)
	defer func() {
		// Deferred dump on panic: preserve the event window leading up to
		// the failure.
		if r := recover(); r != nil {
			watch.Ring().Freeze()
			dumpFlightOnPanic(watch, *flightOut)
			panic(r) //shadowvet:ignore panicmsg -- re-raising the original panic value after the flight dump
		}
	}()

	var rec *obs.Recorder
	if *traceOut != "" || *metricsOut != "" || ring != nil {
		rec = obs.NewRecorder(obs.Options{
			Metrics: *metricsOut != "",
			Events:  *traceOut != "",
			Flight:  ring,
		})
		o.ProbeFor = rec.NewTrack
	}

	// Span tracking: one collector per scheme run, accumulated in label
	// order. SpansFor/Progress force Workers=1, so spanRuns and the
	// inspector sources are only touched from this goroutine.
	type spanRun struct {
		label string
		col   *span.Collector
	}
	var spanRuns []spanRun
	if *blame || *inspect != "" {
		o.SpansFor = func(label string) *span.Collector {
			col := span.NewCollector(0)
			spanRuns = append(spanRuns, spanRun{label: label, col: col})
			if ring != nil {
				// Each scheme run's attribution is independently conserved.
				watch.Add(flight.Conservation(col.Aggregate))
			}
			return col
		}
	}
	blameRows := func() []report.BlameRow {
		rows := make([]report.BlameRow, 0, len(spanRuns))
		for _, r := range spanRuns {
			rows = append(rows, report.BlameRow{Label: r.label, Agg: r.col.Aggregate()})
		}
		return rows
	}
	var ins *obs.Inspector
	var insShutdown func()
	if *inspect != "" {
		ins = obs.NewInspector(time.Now)
		src := obs.InspectorSources{
			Blame: func() []byte { return report.BlameJSON(blameRows()) },
		}
		if rec != nil {
			src.Events = rec.EventCount
			if m := rec.Metrics(); m != nil {
				src.Prom = func() []byte {
					var b bytes.Buffer
					if err := m.WritePrometheus(&b); err != nil {
						return nil
					}
					return b.Bytes()
				}
			}
		}
		if ring != nil {
			src.Flight = func() []byte {
				var b bytes.Buffer
				if err := watch.WriteDump(&b); err != nil {
					return nil
				}
				return b.Bytes()
			}
		}
		ins.SetSources(src)
		srv := &http.Server{Addr: *inspect, Handler: ins.Handler()}
		errc := make(chan error, 1)
		go func() {
			errc <- srv.ListenAndServe()
		}()
		fmt.Fprintf(os.Stderr, "inspector: serving on %s\n", *inspect)
		insShutdown = func() {
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
		o.Progress = ins.Observe
	}

	// Watchdog checks ride the progress callback (which forces sequential
	// points, so the span collectors are only read from this goroutine).
	// Flips are deliberately NOT watched here: several experiments measure
	// corruption on purpose, so a flip is data, not an anomaly.
	if ring != nil {
		watch.OnTrip(func(tr flight.Trip) {
			fmt.Fprintf(os.Stderr, "watchdog %s tripped at %d ps: %s (flight ring frozen)\n",
				tr.Watchdog, tr.AtPS, tr.Detail)
		})
		prev := o.Progress
		o.Progress = func(label string, now, total timing.Tick) {
			if prev != nil {
				prev(label, now, total)
			}
			watch.Check(now)
		}
	}

	type result struct {
		table  *exp.Table
		points []exp.PerfPoint
	}
	type runner func() (result, error)
	perf := func(f func(exp.RunOpts) ([]exp.PerfPoint, *exp.Table, error)) runner {
		return func() (result, error) {
			pts, t, err := f(o)
			return result{table: t, points: pts}, err
		}
	}
	tableOnly := func(t *exp.Table, err error) (result, error) { return result{table: t}, err }
	runners := map[string]runner{
		"table2":    func() (result, error) { return tableOnly(exp.Table2(), nil) },
		"table3":    func() (result, error) { return tableOnly(exp.Table3(), nil) },
		"area":      func() (result, error) { return tableOnly(exp.AreaTable(), nil) },
		"fig8":      perf(exp.Fig8),
		"fig8sweep": perf(exp.Fig8Sweep),
		"fig9":      perf(exp.Fig9),
		"fig10":     perf(exp.Fig10),
		"fig11":     perf(exp.Fig11),
		"fig12": func() (result, error) {
			_, t, err := exp.Fig12(o)
			return result{table: t}, err
		},
		"adversarial": func() (result, error) {
			_, t, err := exp.Adversarial(o)
			return result{table: t}, err
		},
	}
	order := []string{"table2", "table3", "area", "fig8", "fig8sweep", "fig9", "fig10", "fig11", "fig12", "adversarial"}

	var names []string
	if *experiment == "all" {
		names = order
	} else {
		for _, n := range strings.Split(*experiment, ",") {
			if _, ok := runners[n]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (choose from %s)\n", n, strings.Join(order, ", "))
				exit(2)
			}
			names = append(names, n)
		}
	}
	for i, n := range names {
		start := time.Now()
		if *progress {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s...\n", i+1, len(names), n)
		}
		r, err := runners[n]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", n, err)
			exit(1)
		}
		if *progress {
			line := fmt.Sprintf("[%d/%d] %s done in %v", i+1, len(names), n, time.Since(start).Round(time.Millisecond))
			if rec != nil {
				line += fmt.Sprintf(" (%d events)", rec.EventCount())
			}
			fmt.Fprintln(os.Stderr, line)
		}
		switch *format {
		case "csv":
			fmt.Printf("# %s\n%s\n", r.table.Title, r.table.CSV())
		default:
			fmt.Println(r.table)
		}
		if *chart && len(r.points) > 0 {
			fmt.Println(exp.Chart(r.table.Title+" (chart)", r.points))
		}
	}

	ins.Done()
	if *blame {
		fmt.Println()
		fmt.Print(report.BlameTable("stall blame by scheme run (percent of resident time per cause)", blameRows()))
	}
	if rec != nil {
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			exitOn(err)
			exitOn(rec.WriteChromeTrace(f))
			exitOn(f.Close())
			fmt.Fprintf(os.Stderr, "trace: %d events over %d tracks -> %s (open in ui.perfetto.dev)\n",
				rec.EventCount(), len(rec.Tracks()), *traceOut)
			if d := rec.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "warning: %d events dropped; narrow -experiment or shorten -duration-us\n", d)
			}
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			exitOn(err)
			if strings.HasSuffix(*metricsOut, ".csv") {
				exitOn(rec.Metrics().WriteCSV(f))
			} else {
				exitOn(rec.Metrics().WriteJSON(f))
			}
			exitOn(f.Close())
			fmt.Fprintf(os.Stderr, "metrics: %s\n", *metricsOut)
		}
	}
	if *flightOut != "" && ring != nil {
		f, err := os.Create(*flightOut)
		exitOn(err)
		exitOn(watch.WriteDump(f))
		exitOn(f.Close())
		fmt.Fprintf(os.Stderr, "flight: %d of %d events preserved -> %s\n",
			ring.Len(), ring.Total(), *flightOut)
	}
	if insShutdown != nil {
		insShutdown()
	}
	if tr := watch.Tripped(); tr != nil {
		exit(1)
	}
}

// Profiling hooks. stopProfiles is idempotent and must run before any
// os.Exit so the pprof files are complete: exit and exitOn call it.
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
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		runtime.GC()
		pprof.WriteHeapProfile(f)
		f.Close()
	}
}

// exit stops the profiles and exits with code.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
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

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
}

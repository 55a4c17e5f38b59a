// Package sim is the system-level simulator behind the paper's performance
// experiments (Figures 8-12): N cores replaying workload traces against the
// memory controller and DRAM device, with any combination of DRAM-side
// (SHADOW, PARFM, Mithril) and MC-side (BlockHammer, RRS) mitigations.
//
// The core model is the standard trace-driven abstraction used to study
// memory-system changes: each core retires the trace's non-memory
// instructions at a fixed rate and issues its memory accesses with bounded
// memory-level parallelism (MSHRs); a core stalls when its MSHRs are full,
// so added DRAM latency (tRCD', RFM busy time, throttling delays, channel
// blocking) flows directly into lost instruction throughput. Relative
// performance between schemes — all the paper reports — is governed by the
// same mechanisms as on real hardware.
package sim

import (
	"fmt"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/memsys"
	"shadow/internal/minq"
	"shadow/internal/mitigate"
	"shadow/internal/obs"
	"shadow/internal/obs/span"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// probeSetter is implemented by mitigation schemes that accept shadowscope
// instrumentation after construction (shadow.Controller, BlockHammer).
type probeSetter interface {
	SetProbe(*obs.Probe)
}

// Config describes one simulation run.
type Config struct {
	// Params must be fully configured (speed grade, RAAIMT, SHADOW timings,
	// refresh scaling).
	Params *timing.Params
	// Geometry defaults to dram.DefaultGeometry for the params' grade.
	Geometry dram.Geometry
	// Hammer defaults to hammer.DefaultConfig.
	Hammer hammer.Config
	// DeviceMit is the in-DRAM mitigation (nil = unprotected).
	DeviceMit dram.Mitigator
	// MCSide is the controller-side mitigation (nil = none).
	MCSide mitigate.MCSide
	// RFMFilter optionally gates RFMs (Section VIII).
	RFMFilter *mitigate.RFMFilter
	// Workload supplies one generator per core.
	Workload []trace.Generator
	// Duration is the simulated time horizon.
	Duration timing.Tick
	// Warmup excludes the first Warmup ticks from the reported statistics
	// (instructions and controller counters), so threshold-based schemes
	// (tracker tables, Bloom filters) are measured in steady state rather
	// than while still filling. Must be below Duration.
	Warmup timing.Tick
	// Channels builds a multi-channel system (default 1). Workload
	// generators must then emit global bank indices in
	// [0, Channels*Geometry.Banks) — build them over a geometry whose Banks
	// field is the total. With Channels > 1, per-channel mitigators come
	// from DeviceMitFor/MCSideFor (mitigation state must not be shared
	// across channels, since bank indices repeat).
	Channels     int
	DeviceMitFor func(ch int) dram.Mitigator
	MCSideFor    func(ch int) mitigate.MCSide
	// InstPerNS is each core's peak retirement rate (instructions per
	// nanosecond); 4.0 models a ~3 GHz out-of-order core.
	InstPerNS float64
	// MSHR bounds each core's outstanding misses (default 8, approximating
	// an out-of-order core with prefetching).
	MSHR int
	// OnCommand, when set, observes every DRAM command each channel's
	// controller issues (protocol validation; see package cmdtrace). The
	// channel index is passed alongside the command.
	OnCommand func(ch int, cmd memctrl.Cmd)
	// Probe, when set, threads shadowscope instrumentation through the
	// memory controllers, devices, and mitigation schemes; channel ch
	// records on the probe's ForChannel(ch). Nil disables all observation.
	Probe *obs.Probe
	// Spans, when set, threads shadowtap request-lifecycle tracing through
	// the controllers and devices: every request gets a span with
	// conservation-exact stall-cause attribution, rolled up per channel.
	// Nil disables span tracking entirely.
	Spans *span.Collector
	// Progress, when set, is called with the current simulated time roughly
	// every ProgressEvery ticks (observation only; drives the CLI
	// heartbeat). It must not mutate simulation state.
	Progress func(now timing.Tick)
	// ProgressEvery is the Progress callback period (default Duration/100).
	ProgressEvery timing.Tick
	// FullRescan runs every channel's controller with the pre-event-driven
	// full-rescan scheduler (see memctrl.Options.FullRescan). Exists for the
	// scheduler-equivalence regression test.
	FullRescan bool
	// NoTimeSkip runs the per-tick runner loop — every wakeup steps every
	// channel and scans every core — instead of the event wheel that skips
	// quiescent channels and cores and jumps time straight to the next
	// actionable bound. The per-tick loop is the oracle the wheel is proven
	// bit-identical against (see TestSchedulerEquivalence and DESIGN.md §10),
	// exactly as FullRescan preserves the pre-event-driven controller.
	NoTimeSkip bool
}

// Result summarizes a run.
type Result struct {
	Duration timing.Tick
	// Insts and IPC are per core; IPC is in instructions per nanosecond.
	Insts []int64
	IPC   []float64
	MC    memctrl.Stats
	Dev   dram.BankStats
	Flips int
	// Device is channel 0's rank, available for post-run inspection
	// (mapping state, row contents, flip records); Devices lists every
	// channel's rank.
	Device  *dram.Device
	Devices []*dram.Device
}

// core is the per-core replay state.
type core struct {
	gen         trace.Generator
	nextIssueAt timing.Tick
	pending     trace.Event
	outstanding int
	insts       int64
	stalled     bool
	// backoff marks a pending request rejected by a full bank queue;
	// backoffAt is the first rejected attempt, reported to the request's
	// span as queue-full backpressure once it finally enqueues.
	backoff   bool
	backoffAt timing.Tick
}

// completion is one outstanding miss awaiting retirement: the core to
// credit and the time its data returns.
type completion struct {
	core int
	at   timing.Tick
}

// runner holds the hot-loop state of one simulation. The per-iteration work
// lives in tick() — factored out of Run so the allocation regression test
// can pump a steady-state runner directly and pin the loop to 0 allocs.
type runner struct {
	cfg     *Config
	cores   []*core
	mc      *memsys.System
	devices []*dram.Device

	// Event-wheel state (see tickWheel). Under Config.NoTimeSkip the shared
	// retire/issue phases still write coreq and chDirty, but nothing reads
	// them.
	// ctls caches the per-channel controllers so the wheel can step a single
	// channel. coreq holds every unstalled core keyed by its next issue time;
	// stalled cores leave the queue and re-enter on retire. ctlNext caches
	// each channel's advance bound (Controller.NextReadyAt) so quiescent
	// channels are not stepped at all; chDirty marks channels that received a
	// request this tick; chPend/chSel/dueCores are per-tick scratch.
	ctls     []*memctrl.Controller
	coreq    *minq.Queue
	dueCores []int
	ctlNext  []timing.Tick
	chPend   []timing.Tick
	chSel    []bool
	chDirty  []bool

	inflight []completion
	// nextDone is the earliest completion time in inflight (Forever when
	// empty): maintained by onComplete on insert and recomputed by the retire
	// pass, so the advance phase never rescans the inflight list.
	nextDone timing.Tick
	// freeReqs recycles Request objects. A request is recyclable as soon as
	// its column command issues (OnComplete): the controller has dequeued it
	// and the simulator tracks only the (core, done) pair. Live requests are
	// bounded by cores×MSHR, so the pre-filled slab makes the steady-state
	// issue path allocation-free. Recycled requests are reset by whole-struct
	// assignment, clearing stale Span pointers before reuse.
	freeReqs []*memctrl.Request
	reqSlab  []memctrl.Request

	instSeries *obs.Series
	progEvery  timing.Tick
	nextProg   timing.Tick
	now        timing.Tick
}

// newRunner validates cfg, applies defaults, and builds the cores,
// controllers, devices, and recycling pools for one run. Split from Run so
// the allocation regression test can pump a steady-state runner's tick()
// under testing.AllocsPerRun.
func newRunner(cfg Config) (*runner, error) {
	if cfg.Params == nil {
		return nil, fmt.Errorf("sim: Params required")
	}
	if len(cfg.Workload) == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration")
	}
	if cfg.Geometry.Banks == 0 {
		cfg.Geometry = dram.DefaultGeometry(cfg.Params.Grade == timing.DDR5_4800)
	}
	if cfg.Hammer.HCnt == 0 {
		cfg.Hammer = hammer.DefaultConfig()
	}
	if cfg.InstPerNS <= 0 {
		cfg.InstPerNS = 4.0
	}
	if cfg.MSHR <= 0 {
		cfg.MSHR = 8
	}
	if cfg.Warmup >= cfg.Duration {
		return nil, fmt.Errorf("sim: warmup %v must be below duration %v", cfg.Warmup, cfg.Duration)
	}

	channels := cfg.Channels
	if channels <= 0 {
		channels = 1
	}
	if channels > 1 && cfg.DeviceMit != nil {
		return nil, fmt.Errorf("sim: with Channels > 1 use DeviceMitFor, not DeviceMit")
	}
	if channels > 1 && cfg.MCSide != nil {
		return nil, fmt.Errorf("sim: with Channels > 1 use MCSideFor, not MCSide")
	}

	cores := make([]*core, len(cfg.Workload))
	for i, g := range cfg.Workload {
		cores[i] = &core{gen: g}
		cores[i].fetch(cfg.InstPerNS, 0)
	}

	r := &runner{cfg: &cfg, cores: cores}
	r.reqSlab = make([]memctrl.Request, len(cores)*cfg.MSHR)
	r.freeReqs = make([]*memctrl.Request, 0, len(r.reqSlab))
	for i := range r.reqSlab {
		r.freeReqs = append(r.freeReqs, &r.reqSlab[i])
	}
	r.inflight = make([]completion, 0, len(r.reqSlab))
	r.nextDone = timing.Forever
	// Completion queue: (coreID, doneAt) pairs, unsorted (small). The
	// completed request goes straight back on the free list.
	onComplete := func(req *memctrl.Request) {
		r.inflight = append(r.inflight, completion{core: req.Core, at: req.Done})
		if req.Done < r.nextDone {
			r.nextDone = req.Done
		}
		r.freeReqs = append(r.freeReqs, req)
	}

	ctls := make([]*memctrl.Controller, channels)
	devices := make([]*dram.Device, channels)
	for ch := 0; ch < channels; ch++ {
		mit := cfg.DeviceMit
		if cfg.DeviceMitFor != nil {
			mit = cfg.DeviceMitFor(ch)
		}
		mcside := cfg.MCSide
		if cfg.MCSideFor != nil {
			mcside = cfg.MCSideFor(ch)
		}
		chProbe := cfg.Probe.ForChannel(ch)
		if chProbe != nil {
			if ps, ok := mit.(probeSetter); ok {
				ps.SetProbe(chProbe)
			}
			if ps, ok := mcside.(probeSetter); ok {
				ps.SetProbe(chProbe)
			}
		}
		spanTr := cfg.Spans.ForChannel(ch, cfg.Geometry.Banks, chProbe)
		dev, err := dram.NewDevice(dram.Config{
			Geometry:  cfg.Geometry,
			Params:    cfg.Params,
			Hammer:    cfg.Hammer,
			Mitigator: mit,
			Probe:     chProbe,
			Spans:     spanTr,
		})
		if err != nil {
			return nil, err
		}
		devices[ch] = dev
		var onCmd func(memctrl.Cmd)
		if cfg.OnCommand != nil {
			chID := ch
			onCmd = func(c memctrl.Cmd) { cfg.OnCommand(chID, c) }
		}
		ctls[ch] = memctrl.New(dev, memctrl.Options{
			MCSide:     mcside,
			RFMFilter:  cfg.RFMFilter,
			OnComplete: onComplete,
			OnCommand:  onCmd,
			Probe:      chProbe,
			Spans:      spanTr,
			FullRescan: cfg.FullRescan,
		})
	}
	mc, err := memsys.New(ctls)
	if err != nil {
		return nil, err
	}
	r.mc = mc
	r.devices = devices
	r.ctls = ctls
	r.coreq = minq.New(len(cores))
	for i, c := range cores {
		r.coreq.Set(i, c.nextIssueAt)
	}
	r.dueCores = make([]int, 0, len(cores))
	r.ctlNext = make([]timing.Tick, channels)
	r.chPend = make([]timing.Tick, channels)
	r.chSel = make([]bool, channels)
	r.chDirty = make([]bool, channels)

	r.instSeries = cfg.Probe.Series("sim/insts")
	r.progEvery = cfg.ProgressEvery
	if r.progEvery <= 0 {
		r.progEvery = cfg.Duration / 100
	}
	if r.progEvery <= 0 {
		r.progEvery = 1
	}
	r.nextProg = r.progEvery
	return r, nil
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	// Defaults were applied to the runner's copy of the config.
	rcfg := r.cfg

	var warmInsts []int64
	var warmMC memctrl.Stats
	warmTaken := false
	for r.now < rcfg.Duration {
		if !warmTaken && r.now >= rcfg.Warmup && rcfg.Warmup > 0 {
			warmTaken = true
			warmInsts = make([]int64, len(r.cores))
			for i, c := range r.cores {
				warmInsts[i] = c.insts
			}
			warmMC = r.mc.Stats()
		}
		r.tick()
	}

	measured := rcfg.Duration - rcfg.Warmup
	res := &Result{
		Duration: measured,
		Insts:    make([]int64, len(r.cores)),
		IPC:      make([]float64, len(r.cores)),
		MC:       r.mc.Stats(),
		Dev:      r.mc.DeviceStats(),
		Flips:    r.mc.FlipCount(),
		Device:   r.devices[0],
		Devices:  r.devices,
	}
	if warmTaken {
		res.MC = subStats(r.mc.Stats(), warmMC)
	}
	for i, c := range r.cores {
		res.Insts[i] = c.insts
		if warmTaken {
			res.Insts[i] -= warmInsts[i]
		}
		res.IPC[i] = float64(res.Insts[i]) / measured.Nanoseconds()
	}
	return res, nil
}

// tick runs one iteration of the event loop: retire due completions, let
// cores issue, drain the controllers at the current instant, and advance to
// the earliest future event. Allocation-free in steady state. The default
// path is the event wheel (tickWheel); Config.NoTimeSkip selects the
// per-tick oracle loop (tickStep) the wheel is proven bit-identical against.
func (r *runner) tick() {
	if r.cfg.NoTimeSkip {
		r.tickStep()
		return
	}
	r.tickWheel()
}

// tickStep is the per-tick oracle: every wakeup retires, scans every core,
// and steps every channel, then advances to the minimum of the raw Step
// returns, the earliest unstalled core, and the earliest completion. Kept
// as the reference for TestSchedulerEquivalence's wheel axis: it shares
// only the retire and issue phases with tickWheel, not the core selection,
// stepping, or advance.
func (r *runner) tickStep() {
	cfg := r.cfg
	now := r.now

	// 1. Retire completions due by now.
	if r.nextDone <= now {
		r.retire(now)
	}

	// 2. Every core issues its due requests. Each core's next wake-up is
	// folded into coreNext as its issue loop ends — core state never changes
	// after its own iteration, so the advance phase needs no second scan.
	coreNext := timing.Forever
	for id, c := range r.cores {
		r.issue(id, now)
		if !c.stalled && c.nextIssueAt > now && c.nextIssueAt < coreNext {
			coreNext = c.nextIssueAt
		}
	}

	// 3. Controllers issue commands available at now.
	next := timing.Forever
	for {
		t := r.mc.Step(now)
		if t > now {
			next = t
			break
		}
	}

	// 4. Advance to the earliest future event: the controllers' next action,
	// the earliest unstalled core, or the earliest outstanding completion.
	if coreNext < next {
		next = coreNext
	}
	if r.nextDone > now && r.nextDone < next {
		next = r.nextDone
	}
	if next <= now {
		next = now + cfg.Params.TCK
	}
	r.now = next
	r.noteProgress()
}

// retire completes the requests due by now, recomputing the earliest
// surviving completion in the same pass (onComplete keeps it current for
// inserts). Callers skip it while r.nextDone > now, when nothing is due. A
// core that unstalls re-enters coreq at its adjusted issue time; the
// per-tick loop never reads coreq, so both loops share this pass.
func (r *runner) retire(now timing.Tick) {
	nextDone := timing.Forever
	for i := 0; i < len(r.inflight); {
		if r.inflight[i].at <= now {
			c := r.cores[r.inflight[i].core]
			c.outstanding--
			if c.stalled {
				c.stalled = false
				if c.nextIssueAt < r.inflight[i].at {
					c.nextIssueAt = r.inflight[i].at
				}
				r.coreq.Set(r.inflight[i].core, c.nextIssueAt)
			}
			r.inflight[i] = r.inflight[len(r.inflight)-1]
			r.inflight = r.inflight[:len(r.inflight)-1]
		} else {
			if r.inflight[i].at < nextDone {
				nextDone = r.inflight[i].at
			}
			i++
		}
	}
	r.nextDone = nextDone
}

// issue lets core id issue every request due by now, recycling Request
// objects off the free list (whole-struct reset: a recycled request must
// not leak its old Span pointer or channel-rewritten bank index into the
// new attempt). Each accepted request marks its channel dirty so the wheel
// steps it this tick; the per-tick loop steps every channel regardless.
func (r *runner) issue(id int, now timing.Tick) {
	cfg := r.cfg
	c := r.cores[id]
	for !c.stalled && c.nextIssueAt <= now {
		if c.outstanding >= cfg.MSHR {
			c.stalled = true
			return
		}
		req := r.getReq()
		*req = memctrl.Request{
			Core:   id,
			Bank:   c.pending.Bank,
			Row:    c.pending.Row,
			Col:    c.pending.Col,
			Write:  c.pending.Write,
			Arrive: now,
		}
		ok, ch := r.mc.EnqueueCh(req)
		if !ok {
			// Bank queue full: retry after a short backoff. A failed
			// enqueue mutates nothing, so the channel stays clean.
			r.freeReqs = append(r.freeReqs, req) //shadowvet:ignore allocflow -- slab return: freeReqs capacity came from the pops that emptied it
			if !c.backoff {
				c.backoff, c.backoffAt = true, now
			}
			c.nextIssueAt = now + cfg.Params.TCK*4
			return
		}
		r.chDirty[ch] = true
		if c.backoff {
			req.Span.NoteBackpressure(c.backoffAt)
			c.backoff = false
		}
		c.outstanding++
		c.fetch(cfg.InstPerNS, now)
		r.instSeries.Add(now, float64(c.pending.Gap))
	}
}

// tickWheel is the event-wheel scheduler. It performs the same three phases
// as tickStep but touches only the state that can act at this instant:
//
//   - cores come off an indexed min-queue keyed by next issue time, so a
//     wakeup costs O(due cores) instead of O(cores);
//   - a channel is stepped only when it received a request this tick, its
//     cached bound (Controller.NextReadyAt) has arrived, or it is volatile —
//     a skipped Step is provably a pure no-op (DESIGN.md §10);
//   - advance() jumps straight to the minimum cached bound.
//
// Volatility clamp: while ANY channel is volatile (throttle-bound ACTs,
// span-tracked non-idle banks, or full-rescan mode), the set of Step
// instants is observable, so the wheel steps every channel at every wakeup
// and advances only on raw Step returns — the exact per-tick behavior.
func (r *runner) tickWheel() {
	now := r.now

	// 1. Retire completions due by now (shared with tickStep).
	if r.nextDone <= now {
		r.retire(now)
	}

	// 2. Pop the due cores and replay them in core-index order — tickStep
	// scans cores ascending, and bank-queue insertion order (FR-FCFS
	// tie-break) must match it exactly. The pop loop yields key order, so the
	// scratch list is insertion-sorted by index (due sets are tiny).
	due := r.dueCores[:0]
	for {
		id, key, ok := r.coreq.Min()
		if !ok || key > now {
			break
		}
		r.coreq.Remove(id)
		due = append(due, id) //shadowvet:ignore allocflow -- scratch reused via [:0]; capacity fixed at the core count by newRunner
	}
	r.dueCores = due
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j] < due[j-1]; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for _, id := range due {
		r.issue(id, now)
		if c := r.cores[id]; !c.stalled {
			r.coreq.Set(id, c.nextIssueAt)
		}
	}

	// 3. Step the channels that can act: enqueued-into this tick, cached
	// bound arrived, or volatile. The round structure replicates
	// memsys.Step's ascending-channel interleaving so multi-channel command
	// (and completion) order is bit-identical to the per-tick loop; skipped
	// re-steps of already-quiescent channels within the same instant are
	// idempotent no-ops.
	for ch, ctl := range r.ctls {
		r.chSel[ch] = r.chDirty[ch] || r.ctlNext[ch] <= now || ctl.Volatile()
		r.chPend[ch] = now
		r.chDirty[ch] = false
	}
	r.stepSelected(now)
	// Clamp check: if any channel ended this wakeup volatile, the wakeup set
	// must match the per-tick loop exactly from here on. Step the channels
	// the selection skipped — still at this same instant, and provably
	// without effect (their bound had not arrived) — and advance on raw Step
	// returns alone.
	clamped := false
	for _, ctl := range r.ctls {
		if ctl.Volatile() {
			clamped = true
			break
		}
	}
	if clamped {
		again := false
		for ch := range r.ctls {
			if !r.chSel[ch] {
				r.chSel[ch] = true
				r.chPend[ch] = now
				again = true
			}
		}
		if again {
			r.stepSelected(now)
		}
		for ch := range r.ctls {
			r.ctlNext[ch] = r.chPend[ch]
		}
	} else {
		for ch, ctl := range r.ctls {
			if !r.chSel[ch] {
				continue
			}
			// The bound is the max of the raw Step return (the per-tick
			// loop's own advance source — it carries transient bounds like
			// mid-drain precharge times that the cached-state query cannot
			// see) and NextReadyAt (which can exceed the Step return by
			// looking past the post-command bus echo). Both are sound lower
			// bounds on the channel's next action, so their max is too, and
			// every wakeup skipped by taking the later one is an instant
			// where the channel provably could not act.
			b := ctl.NextReadyAt(now)
			if r.chPend[ch] > b {
				b = r.chPend[ch]
			}
			r.ctlNext[ch] = b
		}
	}

	// 4. Jump to the wheel's bound.
	r.advance(now)
}

// stepSelected drains every selected channel to quiescence at now, one
// ascending-channel pass per round exactly like memsys.Step, leaving each
// selected channel's raw Step return in chPend.
func (r *runner) stepSelected(now timing.Tick) {
	for {
		again := false
		for ch, ctl := range r.ctls {
			if r.chSel[ch] && r.chPend[ch] <= now {
				r.chPend[ch] = ctl.Step(now)
				if r.chPend[ch] <= now {
					again = true
				}
			}
		}
		if !again {
			return
		}
	}
}

// advance moves simulated time to the wheel's sound lower bound on the next
// actionable event: the minimum over per-channel bounds, the earliest
// unstalled core's issue time, and the earliest outstanding completion. A
// bound at or before now (volatile channels, refresh drains) clamps the jump
// to +1 tCK — the wheel degrades to the per-tick cadence, never skips.
func (r *runner) advance(now timing.Tick) {
	next := timing.Forever
	for _, b := range r.ctlNext {
		if b < next {
			next = b
		}
	}
	if _, key, ok := r.coreq.Min(); ok && key < next {
		next = key
	}
	if r.nextDone > now && r.nextDone < next {
		next = r.nextDone
	}
	if next <= now {
		next = now + r.cfg.Params.TCK
	}
	r.now = next
	r.noteProgress()
}

// noteProgress fires the optional Progress heartbeat and re-arms it with the
// anchored O(1) catch-up: the next deadline is the first multiple of the
// cadence past now, keeping the phase stable across arbitrarily large event
// jumps without iterating the skipped intervals.
func (r *runner) noteProgress() {
	if r.cfg.Progress == nil || r.now < r.nextProg {
		return
	}
	r.cfg.Progress(r.now) //shadowvet:ignore allocflow -- Progress is an optional throttled UI hook, nil in measured configs and off the per-tick fast path
	r.nextProg += ((r.now-r.nextProg)/r.progEvery + 1) * r.progEvery
}

// getReq pops a recycled Request (the slab bounds live requests at
// cores×MSHR, so this only allocates if that invariant is ever broken).
func (r *runner) getReq() *memctrl.Request {
	if n := len(r.freeReqs); n > 0 {
		req := r.freeReqs[n-1]
		r.freeReqs = r.freeReqs[:n-1]
		return req
	}
	return &memctrl.Request{} //shadowvet:ignore allocflow -- slab refill; the cores-times-MSHR bound keeps this off the steady-state path
}

// subStats subtracts warmup-phase counters from the final totals.
func subStats(a, w memctrl.Stats) memctrl.Stats {
	a.Acts -= w.Acts
	a.Reads -= w.Reads
	a.Writes -= w.Writes
	a.Pres -= w.Pres
	a.Refs -= w.Refs
	a.RFMs -= w.RFMs
	a.SkippedRFMs -= w.SkippedRFMs
	a.Swaps -= w.Swaps
	a.TRRs -= w.TRRs
	a.ReadLatency -= w.ReadLatency
	a.CompletedReads -= w.CompletedReads
	a.CompletedWrites -= w.CompletedWrites
	a.BlockedTime -= w.BlockedTime
	return a
}

// fetch loads the core's next trace event and schedules its issue time after
// the event's instruction gap.
func (c *core) fetch(instPerNS float64, now timing.Tick) {
	c.pending = c.gen.Next()
	c.insts += int64(c.pending.Gap)
	gapTime := timing.Tick(float64(c.pending.Gap) / instPerNS * float64(timing.Nanosecond))
	if gapTime < 1 {
		gapTime = 1
	}
	base := c.nextIssueAt
	if now > base {
		base = now
	}
	c.nextIssueAt = base + gapTime
}

// TotalIPC sums per-core IPC.
func (r *Result) TotalIPC() float64 {
	s := 0.0
	for _, v := range r.IPC {
		s += v
	}
	return s
}

// WeightedSpeedup computes the paper's multiprogram metric: the mean of
// per-core IPC ratios between a scheme run and its baseline run (normalized
// weighted speedup; 1.0 = no slowdown).
func WeightedSpeedup(scheme, baseline *Result) float64 {
	if len(scheme.IPC) != len(baseline.IPC) {
		panic("sim: mismatched core counts")
	}
	s := 0.0
	for i := range scheme.IPC {
		if baseline.IPC[i] == 0 {
			continue
		}
		s += scheme.IPC[i] / baseline.IPC[i]
	}
	return s / float64(len(scheme.IPC))
}

// RelativePerformance for single-threaded runs: inverse-execution-time ratio
// equals the IPC ratio over a fixed horizon.
func RelativePerformance(scheme, baseline *Result) float64 {
	return scheme.TotalIPC() / baseline.TotalIPC()
}

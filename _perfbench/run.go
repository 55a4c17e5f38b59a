package main

import (
	"fmt"
	"time"

	"shadow/internal/dram"
	"shadow/internal/exp"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/obs/flight"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// mode selects what a pass attaches to the simulator. The timed end-to-end
// passes attach nothing.
type mode struct {
	traced bool // wrap the layers in taps
	hashed bool // fold every DRAM command into an FNV hash
}

// outcome is one point's simulated results and host timings. It keeps only
// what the checks and metrics read, so the point's device can be collected.
type outcome struct {
	label  string
	scheme exp.Scheme

	build, gen, run time.Duration // exp.Point.Build, trace.Generators, sim.Run/RunAttack
	start, end      time.Duration // point span, from the process clock origin
	runStart        time.Duration

	mc        memctrl.Stats
	dev       dram.BankStats
	flips     int
	ipc       []float64
	simulated timing.Tick // simulated time the statistics cover
	elapsed   timing.Tick // attack: simulated time to issue every ACT
	acts      int64       // attack: activations issued
	hash      uint64      // mix: FNV command hash; attack: FNV hash of flip records

	taps *taps
	err  error
}

// setup is the host time to build the point before its first simulated tick.
func (o *outcome) setup() time.Duration { return o.build + o.gen }

// cmds sums the simulated DRAM commands of the point's measured window.
func (o *outcome) cmds() int64 {
	s := o.mc
	return s.Acts + s.Reads + s.Writes + s.Pres + s.Refs + s.RFMs
}

// same reports whether two outcomes of one point simulated identically.
// Hashes are compared only when both runs computed one.
func (o *outcome) same(p *outcome) bool {
	if o.mc != p.mc || o.dev != p.dev || o.flips != p.flips || o.elapsed != p.elapsed ||
		o.acts != p.acts || o.simulated != p.simulated || len(o.ipc) != len(p.ipc) {
		return false
	}
	for i := range o.ipc {
		if o.ipc[i] != p.ipc[i] {
			return false
		}
	}
	return o.hash == 0 || p.hash == 0 || o.hash == p.hash
}

// clock is the origin every span time is measured from.
var clock = time.Now()

// runPoint builds and simulates one point through the public entry points.
func runPoint(p *point, seed uint64, m mode) (o outcome) {
	o = outcome{label: p.label, scheme: p.pt.Scheme, start: time.Since(clock)}
	defer func() { o.end = time.Since(clock) }()
	var tp *taps
	if m.traced {
		tp = &taps{}
		o.taps = tp
	}

	s := time.Now()
	params, dm, mc := p.pt.Build(p.geo, p.duration)
	o.build = time.Since(s)
	if tp != nil {
		dm, mc = tp.wrap(dm, mc)
	}

	if p.attack {
		var pat trace.Pattern = &trace.DoubleSided{Bank: p.bank, Victim: p.victim}
		if tp != nil {
			pat = patternTap{pat, tp}
		}
		o.runStart = time.Since(clock)
		s = time.Now()
		res, err := sim.RunAttack(sim.AttackConfig{
			Params: params, Geometry: p.geo, Hammer: p.hammer,
			DeviceMit: dm, MCSide: mc,
			MaxActs:  p.maxActs,
			Duration: timing.Forever / 2,
		}, pat)
		o.run = time.Since(s)
		if err != nil {
			o.err = fmt.Errorf("%s: %w", p.label, err)
			return o
		}
		o.mc, o.dev, o.flips = res.MC, res.Device.TotalStats(), res.Flips
		o.elapsed, o.simulated, o.acts = res.Elapsed, res.Elapsed, res.Acts
		if m.hashed {
			// RunAttack has no command hook; the flip records are the
			// attack's security output, so they are what is hashed.
			h := flight.NewCmdHash()
			for _, f := range res.Device.Flips() {
				h.Note(f.Sub, f.Bank, f.DA, timing.Tick(f.Flip.ByRow))
			}
			o.hash = h.Sum()
		}
		return o
	}

	s = time.Now()
	gens := trace.Generators(p.profiles, p.geo, seed)
	o.gen = time.Since(s)
	if tp != nil {
		tp.wrapGens(gens)
	}
	cfg := sim.Config{
		Params: params, Geometry: p.geo, DeviceMit: dm, MCSide: mc,
		Hammer:   hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
		Workload: gens,
		Duration: p.warmup + p.duration,
		Warmup:   p.warmup,
	}
	var h *flight.CmdHash
	if m.hashed {
		h = flight.NewCmdHash()
		cfg.OnCommand = func(_ int, c memctrl.Cmd) { h.Note(int(c.Kind), c.Bank, c.Row, c.At) }
	}
	o.runStart = time.Since(clock)
	s = time.Now()
	res, err := sim.Run(cfg)
	o.run = time.Since(s)
	if err != nil {
		o.err = fmt.Errorf("%s: %w", p.label, err)
		return o
	}
	o.mc, o.dev, o.flips = res.MC, res.Dev, res.Flips
	o.ipc, o.simulated = res.IPC, res.Duration
	if h != nil {
		o.hash = h.Sum()
	}
	return o
}

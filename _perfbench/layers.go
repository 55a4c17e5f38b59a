package main

import (
	"time"

	"shadow/internal/dram"
	"shadow/internal/mitigate"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// The traced run times each layer from outside: it wraps the three
// interfaces the simulator calls across package boundaries and aggregates
// every call into a (point, layer) count and busy time. Per-call spans would
// run to millions per point.
//
// Wrapping is neutral: the simulator type-asserts mitigators only for
// probeSetter (used when a probe is attached) and span.Attributor (whose
// answer only matters when spans are attached), and the benchmark attaches
// neither. The neutrality check in check.go proves it on every traced run.

// tally is one boundary's call count and busy time.
type tally struct {
	Calls int64         `json:"calls"`
	Busy  time.Duration `json:"busy_ns"`
}

func (t *tally) add(start time.Time) {
	t.Calls++
	t.Busy += time.Since(start)
}

// The wrapped call boundaries, grouped by layer.
const (
	genNext      = iota // trace.Generator.Next / trace.Pattern.NextRow
	devTranslate        // dram.Mitigator
	devOnACT
	devOnRFM
	devNext
	mcTranslate // mitigate.MCSide
	mcAllowed
	mcOnACT
	mcNext
	numBoundaries
)

var boundaryNames = [numBoundaries]string{
	"trace.next",
	"dev.translate", "dev.on_act", "dev.on_rfm", "dev.next_event",
	"mc.translate_row", "mc.act_allowed", "mc.on_act", "mc.next_event",
}

// taps holds one point's (or, summed, one pass's) per-boundary tallies.
type taps struct {
	b         [numBoundaries]tally
	mcActions int64 // non-nil MCSide.OnACT results
}

func (t *taps) add(u *taps) {
	for i := range t.b {
		t.b[i].Calls += u.b[i].Calls
		t.b[i].Busy += u.b[i].Busy
	}
	t.mcActions += u.mcActions
}

// busy sums the busy time of boundaries [from, to).
func (t *taps) busy(from, to int) time.Duration {
	var d time.Duration
	for _, b := range t.b[from:to] {
		d += b.Busy
	}
	return d
}

func (t *taps) devBusy() time.Duration { return t.busy(devTranslate, mcTranslate) }
func (t *taps) mcBusy() time.Duration  { return t.busy(mcTranslate, numBoundaries) }

type genTap struct {
	inner trace.Generator
	t     *taps
}

func (g genTap) Name() string { return g.inner.Name() }

func (g genTap) Next() trace.Event {
	s := time.Now()
	e := g.inner.Next()
	g.t.b[genNext].add(s)
	return e
}

type patternTap struct {
	inner trace.Pattern
	t     *taps
}

func (p patternTap) Name() string { return p.inner.Name() }

func (p patternTap) NextRow() (int, int) {
	s := time.Now()
	b, r := p.inner.NextRow()
	p.t.b[genNext].add(s)
	return b, r
}

type devTap struct {
	inner dram.Mitigator
	t     *taps
}

func (d devTap) Name() string { return d.inner.Name() }

func (d devTap) Translate(b *dram.Bank, paRow int) (int, int) {
	s := time.Now()
	sub, da := d.inner.Translate(b, paRow)
	d.t.b[devTranslate].add(s)
	return sub, da
}

func (d devTap) OnACT(b *dram.Bank, paRow, sub, da int, now timing.Tick) {
	s := time.Now()
	d.inner.OnACT(b, paRow, sub, da, now)
	d.t.b[devOnACT].add(s)
}

func (d devTap) OnRFM(b *dram.Bank, now timing.Tick) {
	s := time.Now()
	d.inner.OnRFM(b, now)
	d.t.b[devOnRFM].add(s)
}

func (d devTap) NextEventAt(now timing.Tick) timing.Tick {
	s := time.Now()
	at := d.inner.NextEventAt(now)
	d.t.b[devNext].add(s)
	return at
}

type mcTap struct {
	inner mitigate.MCSide
	t     *taps
}

func (m mcTap) Name() string { return m.inner.Name() }

func (m mcTap) TranslateRow(bank, paRow int) int {
	s := time.Now()
	r := m.inner.TranslateRow(bank, paRow)
	m.t.b[mcTranslate].add(s)
	return r
}

func (m mcTap) ACTAllowedAt(bank, paRow int, now timing.Tick) timing.Tick {
	s := time.Now()
	at := m.inner.ACTAllowedAt(bank, paRow, now)
	m.t.b[mcAllowed].add(s)
	return at
}

func (m mcTap) OnACT(bank, paRow int, now timing.Tick) *mitigate.Action {
	s := time.Now()
	a := m.inner.OnACT(bank, paRow, now)
	m.t.b[mcOnACT].add(s)
	if a != nil {
		m.t.mcActions++
	}
	return a
}

func (m mcTap) NextEventAt(now timing.Tick) timing.Tick {
	s := time.Now()
	at := m.inner.NextEventAt(now)
	m.t.b[mcNext].add(s)
	return at
}

// wrap installs the taps around a point's layers. Absent layers stay absent:
// the simulator substitutes its own no-op defaults for nil, and those are
// part of the runner's self time.
func (t *taps) wrap(dm dram.Mitigator, mc mitigate.MCSide) (dram.Mitigator, mitigate.MCSide) {
	if dm != nil {
		dm = devTap{dm, t}
	}
	if mc != nil {
		mc = mcTap{mc, t}
	}
	return dm, mc
}

func (t *taps) wrapGens(gens []trace.Generator) {
	for i, g := range gens {
		gens[i] = genTap{g, t}
	}
}

// Telemetry overhead budget: the always-on observation config (metrics probe
// plus flight ring — what shadowsim attaches by default) must cost at most
// 25% wall-clock over the bare simulator on the SHADOW headline point. The
// budget is asserted here so an accidentally hot instrument (an alloc on the
// event path, an unguarded format call, a probe that defeats the readiness
// cache) fails CI as a measured number rather than shipping as drift.
package shadow_test

import (
	"testing"
	"time"

	"shadow/internal/exp"
	"shadow/internal/hammer"
	"shadow/internal/obs"
	"shadow/internal/obs/flight"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// overheadBudgetPct is the gate: flight-config time over bare time, minus
// one, as percent. BenchmarkSim's <scheme>/flight and <scheme>/timeskip lanes
// time the same two configurations per scheme, ungated.
const overheadBudgetPct = 25.0

// runShadowOnce runs the headline SHADOW point once, optionally with the
// always-on telemetry lane attached, and returns the wall-clock cost plus
// the flips statistic (used to pin run equivalence).
func runShadowOnce(t *testing.T, flighted bool) (time.Duration, int) {
	t.Helper()
	o := exp.RunOpts{Duration: 60 * timing.Microsecond, Cores: 4, Subarrays: 8, Seed: 5}
	geo := o.Geometry(timing.DDR4_2666)
	profiles := trace.MixHigh(o.Cores)
	for i := range profiles {
		if profiles[i].WorkingSetRows > geo.PARowsPerBank() {
			profiles[i].WorkingSetRows = geo.PARowsPerBank()
		}
	}
	pt := exp.Point{Scheme: exp.Shadow, HCnt: 4096, Blast: 3, Grade: timing.DDR4_2666, Seed: o.Seed}
	p, dm, mc := pt.Build(geo, o.Duration)
	cfg := sim.Config{
		Params: p, Geometry: geo, DeviceMit: dm, MCSide: mc,
		Hammer:   hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
		Workload: trace.Generators(profiles, geo, o.Seed),
		Duration: o.Duration,
	}
	if flighted {
		rec := obs.NewRecorder(obs.Options{Metrics: true, Flight: flight.NewRing(flight.DefaultCapacity)})
		cfg.Probe = rec.NewTrack("overhead")
	}
	start := time.Now()
	res, err := sim.Run(cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, res.Flips
}

// TestTelemetryOverheadBudget measures probed-vs-unprobed cost directly:
// K interleaved pairs (bare, flight), min-of-K on each side to shed scheduler
// and GC noise, then the budget assertion. Interleaving keeps thermal and
// cache drift from biasing one side.
func TestTelemetryOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped under -short")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation multiplies mutex cost; the budget is gated on the uninstrumented build")
	}
	const rounds = 6
	minBare, minFlight := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		bare, bareFlips := runShadowOnce(t, false)
		flighted, flightFlips := runShadowOnce(t, true)
		if bareFlips != flightFlips {
			t.Fatalf("flight run diverged from bare run: %d vs %d flips (neutrality broken; the timing comparison is meaningless)", bareFlips, flightFlips)
		}
		if bare < minBare {
			minBare = bare
		}
		if flighted < minFlight {
			minFlight = flighted
		}
	}
	overheadPct := (float64(minFlight)/float64(minBare) - 1) * 100
	t.Logf("telemetry overhead: bare %v, flight %v (%+.1f%%, budget %.0f%%)",
		minBare, minFlight, overheadPct, overheadBudgetPct)
	if overheadPct > overheadBudgetPct {
		t.Errorf("always-on telemetry overhead %.1f%% exceeds the %.0f%% budget (bare %v, flight %v)",
			overheadPct, overheadBudgetPct, minBare, minFlight)
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"shadow/internal/timing"
)

// short keeps every mechanism check firing at a fraction of the benchmark's
// horizons.
var short = scale{
	fig11Warmup:    400 * timing.Microsecond,
	fig11Duration:  200 * timing.Microsecond,
	mixLowDuration: 200 * timing.Microsecond,
	attackActs:     40_000,
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wls, workloadNames)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsShort runs every workload untraced and traced at a short
// horizon: every output check must pass, and each run must emit exactly the
// metrics BENCHMARK.json declares for it.
func TestWorkloadsShort(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: wl, seed: 3, trace: traced, root: "..", scale: short,
				coldSetup: func(w *workload) (setupTime, error) { return timeSetup(w, newRefKernel()), nil },
				setupRuns: 2,
			}
			res, rep, err := bench(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", wl, traced, res.Correct, res.Attempted, res.Failed, rep.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", wl, traced, name, m.Value)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, m.Value)
				}
			}
			if !equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", wl, traced, got, want)
			}
			if traced && wl == wlFig11 {
				// The MC-side trackers are the largest wrapped child here.
				mc := res.Metrics["mitigate.rrs.busy_s"].Value + res.Metrics["mitigate.blockhammer.busy_s"].Value
				for _, other := range []string{"shadow.busy_s", "trace.busy_s"} {
					if v := res.Metrics[other].Value; !(mc > v) {
						t.Errorf("fig11-ddr5: MC-side busy %.3fs not above %s %.3fs", mc, other, v)
					}
				}
			}
			if traced && wl == wlMixLow {
				for _, name := range []string{"mitigate.mc.on_act_calls", "mitigate.mc.act_allowed_calls", "mitigate.mc.next_event_calls", "mitigate.rrs.busy_s", "mitigate.blockhammer.busy_s"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("mixlow-64: %s = %v, want 0 (no MC-side mitigation)", name, v)
					}
				}
			}
		}
	}
}

// TestCheckSameCatchesDivergence pins the neutrality check itself: any
// difference in a simulated result fails the point.
func TestCheckSameCatchesDivergence(t *testing.T) {
	w, err := newWorkload(wlMixLow, 1, short)
	if err != nil {
		t.Fatal(err)
	}
	a := []outcome{runPoint(&w.points[0], w.seed, mode{hashed: true})}
	b := []outcome{a[0]}
	f := failures{}
	checkSame(f, "copy", a, b)
	if len(f) != 0 {
		t.Fatalf("identical outcomes flagged: %v", f)
	}
	for _, perturb := range []func(o *outcome){
		func(o *outcome) { o.mc.Acts++ },
		func(o *outcome) { o.hash ^= 1 },
		func(o *outcome) { o.ipc = append([]float64{o.ipc[0] * 2}, o.ipc[1:]...) },
	} {
		c := []outcome{a[0]}
		perturb(&c[0])
		f := failures{}
		checkSame(f, "perturbed", a, c)
		if len(f) != 1 {
			t.Errorf("perturbed outcome not flagged")
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newWorkload("nope", 1, full); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestRefKernelNoAlloc pins that reference samples allocate nothing, so the
// samples taken between a pass's points leave its alloc_mb unchanged.
func TestRefKernelNoAlloc(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(3, k.run); n != 0 {
		t.Fatalf("a reference sample allocates %v times, want 0", n)
	}
}

package exp

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"shadow/internal/timing"
	"shadow/internal/trace"
)

// TestParallelFanOutSharedBaseline exercises the real goroutine fan-out of
// the experiment harness under the race detector: several scheme points run
// concurrently through parallelEach, all contending on the shared baseline
// cache (baselineMu). Run with -race; any unsynchronized access to the
// cache or the error slot fails the build's `go test -race ./...` gate.
func TestParallelFanOutSharedBaseline(t *testing.T) {
	o := RunOpts{
		Duration:  20 * timing.Microsecond,
		Cores:     1,
		Subarrays: 8,
		Seed:      7001, // keys distinct from other tests' cache entries
		Workers:   8,
	}
	schemes := []Scheme{Shadow, DRR, PARFM, MithrilArea}
	rel := make([]float64, len(schemes))
	err := parallelEach(len(schemes), o.Workers, func(i int) error {
		ws, _, err := runPoint(Point{
			Scheme: schemes[i], HCnt: 4096, Grade: timing.DDR4_2666, Seed: o.Seed,
		}, trace.MixHigh(o.Cores), o)
		rel[i] = ws
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ws := range rel {
		if ws <= 0 || ws > 1.2 {
			t.Errorf("%s: relative performance %.3f implausible", schemes[i], ws)
		}
	}
	// Every point shares one workload/grade/opts key: the baseline must have
	// been simulated once and served from the cache afterwards.
	key := baselineKeyCount(o)
	if key != 1 {
		t.Errorf("baseline cache holds %d entries for this config, want 1", key)
	}
}

// baselineKeyCount counts cache entries carrying this test's unique seed
// (keys are "grade/duration/warmup/cores/seed/subarrays,profiles...").
func baselineKeyCount(o RunOpts) int {
	o = o.withDefaults()
	marker := fmt.Sprintf("/%d/", o.Seed)
	baselineMu.Lock()
	defer baselineMu.Unlock()
	n := 0
	for key := range baselineCache {
		if strings.Contains(key, marker) {
			n++ //shadowvet:ignore determinism -- order-independent count
		}
	}
	return n
}

// TestParallelSweepMatchesSequential pins fan-out determinism: the same
// 12-point runJobs sweep (4 schemes x 3 H_cnt values, one workload, one
// seed) yields bit-identical PerfPoints on 4 workers and on 1. Which
// goroutine simulates a point, and in what order, must not reach its
// result.
func TestParallelSweepMatchesSequential(t *testing.T) {
	sweep := func(workers int) []PerfPoint {
		t.Helper()
		o := RunOpts{
			Duration:  20 * timing.Microsecond,
			Cores:     1,
			Subarrays: 8,
			Seed:      9100, // keys distinct from other tests' cache entries
			Workers:   workers,
		}
		schemes := []Scheme{Shadow, DRR, PARFM, MithrilArea}
		hcnts := []int{1024, 2048, 4096}
		points := make([]PerfPoint, len(schemes)*len(hcnts))
		var jobs []perfJob
		for si, s := range schemes {
			for hi, h := range hcnts {
				jobs = append(jobs, perfJob{
					workload: "mix-high",
					profiles: trace.MixHigh(o.Cores),
					pt:       Point{Scheme: s, HCnt: h, Grade: timing.DDR4_2666, Seed: o.Seed},
					out:      &points[si*len(hcnts)+hi],
				})
			}
		}
		if err := runJobs(jobs, o); err != nil {
			t.Fatal(err)
		}
		return points
	}
	par, seq := sweep(4), sweep(1)
	for i := range seq {
		if seq[i].Rel <= 0 {
			t.Fatalf("point %d: relative performance %v, want > 0", i, seq[i].Rel)
		}
		if par[i] != seq[i] {
			t.Errorf("point %d diverged across fan-out: 4 workers %+v, 1 worker %+v", i, par[i], seq[i])
		}
	}
}

// TestParallelEachErrorFirstWins hammers the error path: many workers fail
// concurrently and exactly one error must surface, with errMu keeping the
// write race-free (verified by -race).
func TestParallelEachErrorFirstWins(t *testing.T) {
	boom := errors.New("exp: synthetic failure")
	var calls atomic.Int64
	err := parallelEach(200, 8, func(i int) error {
		calls.Add(1)
		if i%3 == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the synthetic failure", err)
	}
	if calls.Load() == 0 || calls.Load() > 200 {
		t.Fatalf("calls = %d out of range", calls.Load())
	}
}

// TestParallelEachCoversAll checks the work-stealing index distribution:
// every index runs exactly once across workers.
func TestParallelEachCoversAll(t *testing.T) {
	const n = 500
	var hits [n]atomic.Int32
	if err := parallelEach(n, 16, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, got)
		}
	}
}

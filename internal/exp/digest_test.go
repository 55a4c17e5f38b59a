package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"shadow/internal/sim"
	"shadow/internal/timing"
)

var update = flag.Bool("update", false, "rewrite testdata/results.digest from this tree's results")

const digestPath = "testdata/results.digest"

// raceEnabled is set in race-detector builds (race_enabled_test.go).
var raceEnabled bool

// TestResultsDigest pins the reproduced results across changes: a reduced-
// scale run of Figures 8-12 and the Section VII-C adversarial bound, with
// every point's value at fixed precision and every scheme run's controller
// statistics, device statistics, flips and command-stream hash, compared
// byte for byte against testdata/results.digest. A change that moves any
// simulated number (one tracker eviction, one command one tick later)
// fails here even when every shape assertion of the figure tests holds.
// Re-bless with `go test ./internal/exp -run TestResultsDigest -update`
// and say in the change log which numbers moved and why.
func TestResultsDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("pins values, not concurrency; ~15x slower under the race detector (scripts/check.sh runs it uninstrumented by name)")
	}
	got := resultsDigest(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (bless with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w && shown < 10 {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			shown++
		}
	}
	t.Fatalf("results digest differs from %s (re-bless only for an intended change)", digestPath)
}

// resultsDigest runs every simulated figure at reduced scale and renders the
// digest text.
func resultsDigest(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	figure := func(name string, o RunOpts, run func(RunOpts) ([]string, error)) {
		// Sweep workers finish in any order; sorting by label fixes it.
		var (
			mu   sync.Mutex
			runs [][2]string // label, runLine
		)
		o.record = func(label string, res *sim.Result, cmdHash uint64) {
			mu.Lock()
			defer mu.Unlock()
			runs = append(runs, [2]string{label, runLine(res, cmdHash)})
		}
		points, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range points {
			fmt.Fprintf(&b, "%s point %s\n", name, p)
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i][0] < runs[j][0] })
		for i, r := range runs {
			if i > 0 && r[0] == runs[i-1][0] {
				t.Errorf("%s: run label %q recorded twice", name, r[0])
			}
			fmt.Fprintf(&b, "%s run %s %s\n", name, r[0], r[1])
		}
	}
	perf := func(fig func(RunOpts) ([]PerfPoint, *Table, error)) func(RunOpts) ([]string, error) {
		return func(o RunOpts) ([]string, error) {
			pts, _, err := fig(o)
			var out []string
			for _, p := range pts {
				out = append(out, fmt.Sprintf("%s %s h%d b%d rel=%.6f", p.Workload, p.Scheme, p.HCnt, p.Blast, p.Rel))
			}
			return out, err
		}
	}

	o := fastOpts()
	figure("fig8", o, perf(Fig8))
	figure("fig8sweep", o, perf(Fig8Sweep))
	figure("fig9", o, perf(Fig9))
	figure("fig10", o, perf(Fig10))
	// Fig. 11 measures at least 500 us; a short warm-up in place of its
	// 1 ms default keeps the digest fast, and four cores put mcf in
	// mix-high, so at H_cnt 2K RRS still swaps and BlockHammer throttles.
	o11 := o
	o11.Warmup = 100 * timing.Microsecond
	o11.Cores = 4
	figure("fig11", o11, perf(Fig11))
	figure("fig12", o, func(o RunOpts) ([]string, error) {
		pts, _, err := Fig12(o)
		var out []string
		for _, p := range pts {
			out = append(out, fmt.Sprintf("%s h%d power=%.6f rfm/ref=%.6f", p.Workload, p.HCnt, p.RelPower, p.RFMPerREF))
		}
		return out, err
	})
	figure("adversarial", o, func(o RunOpts) ([]string, error) {
		r, _, err := Adversarial(o)
		return []string{fmt.Sprintf("trcd-only=%.6f full=%.6f", r.TRCDOnly, r.Full)}, err
	})
	return b.String()
}

// runLine renders one scheme run's statistics, flips and command hash.
func runLine(res *sim.Result, cmdHash uint64) string {
	mc, dev := res.MC, res.Dev
	return fmt.Sprintf("acts=%d rd=%d wr=%d pre=%d ref=%d rfm=%d skiprfm=%d swap=%d trr=%d "+
		"rdlat=%d rdone=%d wdone=%d blocked=%d dev=%d/%d/%d/%d/%d/%d/%d/%d flips=%d cmd=%016x",
		mc.Acts, mc.Reads, mc.Writes, mc.Pres, mc.Refs, mc.RFMs, mc.SkippedRFMs, mc.Swaps, mc.TRRs,
		int64(mc.ReadLatency), mc.CompletedReads, mc.CompletedWrites, int64(mc.BlockedTime),
		dev.Acts, dev.Reads, dev.Writes, dev.Pres, dev.RefRows, dev.RFMs, dev.RowCopies, dev.Flips,
		res.Flips, cmdHash)
}

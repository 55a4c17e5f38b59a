package main

import (
	"fmt"
	"math"

	"shadow/internal/exp"
	"shadow/internal/sim"
)

// failures maps a point's index in its workload to why its outputs were
// rejected. A point with any failure counts once toward failed.
type failures map[int][]string

func (f failures) add(i int, format string, args ...any) {
	f[i] = append(f[i], fmt.Sprintf(format, args...))
}

// find returns the index of the workload's (scheme, H_cnt) point, or -1.
// The baseline is found with hcnt -1 whatever its H_cnt.
func find(w *workload, s exp.Scheme, hcnt int) int {
	for i, p := range w.points {
		if p.pt.Scheme == s && (hcnt < 0 || p.pt.HCnt == hcnt) {
			return i
		}
	}
	return -1
}

// ws is a mix point's weighted speedup over the workload's baseline.
func ws(w *workload, outs []outcome, i int) float64 {
	b := &outs[find(w, exp.Baseline, -1)]
	if len(b.ipc) == 0 || len(outs[i].ipc) != len(b.ipc) {
		return math.NaN()
	}
	return sim.WeightedSpeedup(&sim.Result{IPC: outs[i].ipc}, &sim.Result{IPC: b.ipc})
}

// relPerf is SHADOW's simulated performance relative to the baseline: the
// weighted speedup (geomean over H_cnt) for the mixes, and the baseline's
// simulated attack time over SHADOW's at a fixed ACT count for the attack.
func relPerf(w *workload, outs []outcome) float64 {
	if w.name == wlAttack {
		b, s := outs[find(w, exp.Baseline, -1)], outs[find(w, exp.Shadow, -1)]
		return float64(b.elapsed) / float64(s.elapsed)
	}
	logSum, n := 0.0, 0
	for i, p := range w.points {
		if p.pt.Scheme == exp.Shadow {
			logSum += math.Log(ws(w, outs, i))
			n++
		}
	}
	return math.Exp(logSum / float64(n))
}

// checkPass checks one pass's outputs: every point ran and is plausible,
// and every mechanism the workload was chosen for fired.
func checkPass(w *workload, outs []outcome) failures {
	f := failures{}
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			f.add(i, "%v", o.err)
			continue
		}
		cas := o.mc.Reads + o.mc.Writes
		switch {
		case w.points[i].attack:
			if o.acts != w.points[i].maxActs {
				f.add(i, "issued %d ACTs, want %d", o.acts, w.points[i].maxActs)
			}
		default:
			for c, v := range o.ipc {
				if !(v > 0) {
					f.add(i, "core %d retired nothing", c)
				}
			}
			if o.flips != 0 {
				f.add(i, "benign mix flipped %d bits", o.flips)
			}
			if o.mc.CompletedReads == 0 || cas < o.mc.Acts {
				f.add(i, "implausible controller stats %+v", o.mc)
			}
		}
	}
	if len(f) > 0 {
		// A point that did not run leaves nothing to compare.
		return f
	}

	at := func(s exp.Scheme, hcnt int) int { return find(w, s, hcnt) }
	switch w.name {
	case wlFig11:
		for _, h := range []int{16384, 2048} {
			if i := at(exp.Shadow, h); outs[i].mc.RFMs == 0 {
				f.add(i, "shadow issued no RFMs at H_cnt %d", h)
			}
		}
		sh, rrs, bh := at(exp.Shadow, 2048), at(exp.RRS, 2048), at(exp.BlockHammer, 2048)
		if outs[rrs].mc.Swaps == 0 || outs[rrs].mc.BlockedTime == 0 {
			f.add(rrs, "rrs did not swap (swaps %d, blocked %v)", outs[rrs].mc.Swaps, outs[rrs].mc.BlockedTime)
		}
		if base := at(exp.Baseline, -1); outs[bh].mc.Acts >= outs[base].mc.Acts {
			f.add(bh, "blockhammer did not throttle: %d ACTs vs baseline %d", outs[bh].mc.Acts, outs[base].mc.Acts)
		}
		// The paper's ordering at H_cnt 2K.
		if a, b := ws(w, outs, sh), ws(w, outs, rrs); !(a > b) {
			f.add(sh, "shadow %.4f not above rrs %.4f at H_cnt 2K", a, b)
		}
		if a, b := ws(w, outs, rrs), ws(w, outs, bh); !(a > b) {
			f.add(rrs, "rrs %.4f not above blockhammer %.4f at H_cnt 2K", a, b)
		}
	case wlMixLow:
		if i := at(exp.Shadow, -1); outs[i].mc.RFMs == 0 {
			f.add(i, "shadow issued no RFMs")
		}
	case wlAttack:
		if i := at(exp.Baseline, -1); outs[i].flips == 0 {
			f.add(i, "unprotected device did not flip")
		}
		if i := at(exp.Shadow, -1); outs[i].flips != 0 {
			f.add(i, "shadow let %d bits flip", outs[i].flips)
		}
		if i := at(exp.PARFM, -1); outs[i].mc.RFMs == 0 {
			f.add(i, "parfm issued no RFMs")
		}
		if i := at(exp.RRS, -1); outs[i].mc.Swaps == 0 {
			f.add(i, "rrs did not swap")
		}
	}
	return f
}

// checkSame fails every point whose outcome differs between two runs that
// must simulate identically (a repeated pass, or a traced pass against an
// untraced one).
func checkSame(f failures, what string, a, b []outcome) {
	for i := range a {
		if a[i].err == nil && b[i].err == nil && !a[i].same(&b[i]) {
			f.add(i, "%s: simulated results differ", what)
		}
	}
}

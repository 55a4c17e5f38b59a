package exp

import (
	"fmt"

	"shadow/internal/hammer"
	"shadow/internal/sim"
	"shadow/internal/timing"
	"shadow/internal/trace"
)

// AdversarialResult holds the Section VII-C worst-case bounds: the paper
// reports <3% degradation from SHADOW's longer tRCD alone and <9% with the
// theoretically most frequent RFM stream, on a random-stream microbenchmark
// chosen to maximize both effects.
type AdversarialResult struct {
	TRCDOnly float64 // relative performance with tRCD' but RFM disabled
	Full     float64 // relative performance with tRCD' and max-frequency RFM
}

// Adversarial measures the two bounds.
func Adversarial(o RunOpts) (AdversarialResult, *Table, error) {
	o = o.withDefaults()
	geo := o.Geometry(timing.DDR4_2666)
	mk := func(label string, pt Point, rfm bool) (float64, error) {
		p, dm, mc := pt.Build(geo, o.Duration)
		if !rfm {
			p.RAAIMT = 0 // isolate the tRCD' effect
		}
		gen := func() []trace.Generator {
			return []trace.Generator{trace.RandomStream(geo, o.Seed)}
		}
		// The stream microbenchmark runs on hardware with deep MLP; model it
		// with a generous MSHR count so the bound isolates DRAM effects.
		base, err := sim.Run(sim.Config{
			Params:   timing.NewParams(timing.DDR4_2666),
			Geometry: geo,
			Hammer:   hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
			Workload: gen(),
			Duration: o.Duration,
			MSHR:     16,
		})
		if err != nil {
			return 0, err
		}
		res, err := o.run(label, sim.Config{
			Params: p, Geometry: geo, DeviceMit: dm, MCSide: mc,
			Hammer:   hammer.Config{HCnt: 1 << 30, BlastRadius: 3},
			Workload: gen(),
			Duration: o.Duration,
			MSHR:     16,
		})
		if err != nil {
			return 0, err
		}
		return sim.RelativePerformance(res, base), nil
	}

	var out AdversarialResult
	var err error
	// tRCD-only bound.
	out.TRCDOnly, err = mk("trcd-only", Point{Scheme: Shadow, HCnt: 4096, Grade: timing.DDR4_2666, Seed: o.Seed}, false)
	if err != nil {
		return out, nil, err
	}
	// Max-RFM bound: the lowest RAAIMT SHADOW ever uses (H_cnt 2K -> 32).
	out.Full, err = mk("max-rfm", Point{Scheme: Shadow, HCnt: 2048, Grade: timing.DDR4_2666, Seed: o.Seed}, true)
	if err != nil {
		return out, nil, err
	}

	t := &Table{
		Title:  "Section VII-C: worst-case adversarial stream bounds",
		Header: []string{"configuration", "relative performance", "paper bound"},
		Rows: [][]string{
			{"tRCD' only (no RFM)", fmt.Sprintf("%.3f", out.TRCDOnly), ">= 0.97"},
			{"tRCD' + max-frequency RFM", fmt.Sprintf("%.3f", out.Full), ">= 0.91"},
		},
	}
	return out, t, nil
}

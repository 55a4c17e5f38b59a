// Package memsys composes multiple memory channels into one system, as in
// the paper's actual-system configuration (Table IV: 4 channels, 1 DIMM per
// channel). Each channel owns an independent memory controller and DRAM
// rank; requests are distributed by global bank index, so sequential
// physical addresses interleave across channels first (the
// parallelism-maximizing layout of Section II-B).
//
// Channels are fully independent in DDR systems — separate command, address,
// and data buses — so the system's Step is simply the earliest next event
// across per-channel controllers. (Multiple ranks per channel would share
// buses; the paper's machine has one DIMM per channel, and we fold its two
// physical ranks into the per-channel bank count.)
package memsys

import (
	"fmt"

	"shadow/internal/dram"
	"shadow/internal/memctrl"
	"shadow/internal/timing"
)

// System is a set of independent memory channels.
type System struct {
	channels []*memctrl.Controller
	banks    int // banks per channel
}

// New builds a system from per-channel controllers. All channels must have
// the same geometry.
func New(channels []*memctrl.Controller) (*System, error) {
	if len(channels) == 0 {
		return nil, fmt.Errorf("memsys: need at least one channel")
	}
	banks := channels[0].Device().Banks()
	for i, c := range channels {
		if c.Device().Banks() != banks {
			return nil, fmt.Errorf("memsys: channel %d has %d banks, want %d", i, c.Device().Banks(), banks)
		}
	}
	return &System{channels: channels, banks: banks}, nil
}

// Channels returns the number of channels.
func (s *System) Channels() int { return len(s.channels) }

// TotalBanks returns the system-wide bank count (the global bank space).
func (s *System) TotalBanks() int { return s.banks * len(s.channels) }

// Controller returns channel ch's controller.
func (s *System) Controller(ch int) *memctrl.Controller { return s.channels[ch] }

// Route splits a global bank index into (channel, local bank): banks
// interleave across channels first.
func (s *System) Route(globalBank int) (ch, bank int) {
	gb := globalBank % s.TotalBanks()
	return gb % len(s.channels), gb / len(s.channels)
}

// Enqueue routes a request whose Bank field is a global bank index; the
// field is rewritten to the channel-local bank.
func (s *System) Enqueue(r *memctrl.Request) bool {
	ch, bank := s.Route(r.Bank)
	r.Bank = bank
	return s.channels[ch].Enqueue(r)
}

// EnqueueCh routes and enqueues like Enqueue and additionally reports which
// channel the request landed on, so the event wheel can mark that channel
// due without sweeping all of them.
func (s *System) EnqueueCh(r *memctrl.Request) (ok bool, ch int) {
	ch, bank := s.Route(r.Bank)
	r.Bank = bank
	return s.channels[ch].Enqueue(r), ch
}

// Step runs every channel that can act at `now` and returns the earliest
// future instant any channel could act. Like Controller.Step, a return value
// equal to now means call again.
func (s *System) Step(now timing.Tick) timing.Tick {
	next := timing.Forever
	for _, c := range s.channels {
		t := c.Step(now)
		if t < next {
			next = t
		}
	}
	return next
}

// Pending reports whether any channel has queued requests.
func (s *System) Pending() bool {
	for _, c := range s.channels {
		if c.Pending() {
			return true
		}
	}
	return false
}

// Stats sums controller statistics across channels.
func (s *System) Stats() memctrl.Stats {
	var t memctrl.Stats
	for _, c := range s.channels {
		st := c.Stats
		t.Acts += st.Acts
		t.Reads += st.Reads
		t.Writes += st.Writes
		t.Pres += st.Pres
		t.Refs += st.Refs
		t.RFMs += st.RFMs
		t.SkippedRFMs += st.SkippedRFMs
		t.Swaps += st.Swaps
		t.TRRs += st.TRRs
		t.ReadLatency += st.ReadLatency
		t.CompletedReads += st.CompletedReads
		t.CompletedWrites += st.CompletedWrites
		t.BlockedTime += st.BlockedTime
	}
	return t
}

// DeviceStats sums device statistics across channels.
func (s *System) DeviceStats() dram.BankStats {
	var t dram.BankStats
	for _, c := range s.channels {
		st := c.Device().TotalStats()
		t.Acts += st.Acts
		t.Reads += st.Reads
		t.Writes += st.Writes
		t.Pres += st.Pres
		t.RefRows += st.RefRows
		t.RFMs += st.RFMs
		t.RowCopies += st.RowCopies
		t.Flips += st.Flips
	}
	return t
}

// FlipCount sums Row Hammer flips across channels.
func (s *System) FlipCount() int {
	n := 0
	for _, c := range s.channels {
		n += c.Device().FlipCount()
	}
	return n
}

package main

import "time"

// The host the benchmark was defined on is shared: its speed drifts with its
// neighbours' load, by up to 2x over minutes, and the drift hits the
// simulator's memory-bound code far harder than plain arithmetic. Timed
// passes therefore interleave a fixed reference kernel with the workload's
// points and report point times in units of the kernel's time measured
// around them.
//
// The kernel is shaped like the simulator's hot loop: a binary-heap event
// queue, random read-modify-writes over a table of per-bank state larger
// than the L2 cache, and increments in a small map. It allocates nothing
// after its first sample and shares no code with the simulator, so a change
// to the simulator cannot change it.

// refSteps is the events one reference sample simulates (a median of 43–46
// ms on the host the benchmark was defined on).
const refSteps = 200_000

// refNominal is the reference sample's nominal duration, a round figure near
// its duration on the host the benchmark was defined on. Normalized times are
// the measured time times refNominal over the reference time measured around
// it, so they read as seconds on a host whose sample takes refNominal.
const refNominal = 50 * time.Millisecond

type refBank struct {
	open, count, last uint64
	hist              [5]uint32
}

// refKernel holds the kernel's state between samples.
type refKernel struct {
	q     []uint64
	banks []refBank
	rows  map[uint32]uint32
	x     uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		q:     make([]uint64, 0, 1024),
		banks: make([]refBank, 96<<10), // 96K x 48 B: about 4.7 MB
		rows:  make(map[uint32]uint32, 4096),
		x:     88172645463325252,
	}
	k.run() // fill the map and fault the table in
	return k
}

// normalize scales host time d to seconds at the reference speed, by the
// mean of the reference samples taken just before and just after it.
func normalize(d, before, after time.Duration) float64 {
	return d.Seconds() * 2 * refNominal.Seconds() / (before + after).Seconds()
}

// sample runs one reference sample and returns its host time.
func (k *refKernel) sample() time.Duration {
	s := time.Now()
	k.run()
	return time.Since(s)
}

func (k *refKernel) next() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

func (k *refKernel) run() {
	k.q = k.q[:0]
	for i := 0; i < cap(k.q); i++ {
		k.push(k.next() >> 40)
	}
	for i := 0; i < refSteps; i++ {
		t := k.pop()
		x := k.next()
		b := &k.banks[x%uint64(len(k.banks))]
		if row := x >> 32 & 0xffff; b.open != row {
			b.open = row
			b.count++
			b.hist[b.count%uint64(len(b.hist))] = uint32(row)
			k.rows[uint32(x>>52)]++
		}
		b.last = t
		k.push(t + 1 + x>>58)
	}
}

func (k *refKernel) push(v uint64) {
	q := append(k.q, v)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	k.q = q
}

func (k *refKernel) pop() uint64 {
	q := k.q
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && q[l] < q[m] {
			m = l
		}
		if r := l + 1; r < n && q[r] < q[m] {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	k.q = q
	return top
}

package netem

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/xrand"
)

// floatDrop is the float form of a condition's uniform loss draw, the
// reference the threshold draws must reproduce bit for bit.
func floatDrop(c Condition, rng *rand.Rand) bool {
	return floatDraw(c.LossRate, rng)
}

// floatDraw is one Bernoulli trial in math/rand's float form.
func floatDraw(p float64, rng *rand.Rand) bool {
	return p > 0 && rng.Float64() < p
}

// floatPath replays a condition's impairments with float draws: the
// reference Path must match decision for decision and draw for draw.
type floatPath struct {
	c   Condition
	bad bool
}

func (p *floatPath) Drop(rng *rand.Rand) bool {
	c := &p.c
	if c.GEBadLoss <= 0 {
		return floatDrop(*c, rng)
	}
	if p.bad {
		if floatDraw(c.GEPBadGood, rng) {
			p.bad = false
		}
	} else if floatDraw(c.GEPGoodBad, rng) {
		p.bad = true
	}
	if p.bad {
		return floatDraw(c.GEBadLoss, rng)
	}
	return floatDraw(c.GEGoodLoss, rng)
}

func (p *floatPath) Dup(rng *rand.Rand) bool     { return floatDraw(p.c.DupRate, rng) }
func (p *floatPath) Reorder(rng *rand.Rand) bool { return floatDraw(p.c.ReorderRate, rng) }

// script is a rand.Source that replays fixed Int63 values, so a test can
// put any chosen value in front of both draw forms.
type script struct {
	vals []int64
	next int
}

func (s *script) Int63() int64 {
	v := s.vals[s.next]
	s.next++
	return v
}

func (s *script) Seed(int64) { s.next = 0 }

// TestThresholdEdges pins retryAt, the first Int63 value whose float64
// quotient rounds up to 1, and T(p) at edge probabilities, and checks
// through scripted draws of T-1, T and T+1 that the threshold draw
// decides what rng.Float64() < p decides on both sides of the cut.
func TestThresholdEdges(t *testing.T) {
	if retryAt != 1<<63-512 || unitFloat(retryAt) != 1 || unitFloat(retryAt-1) >= 1 || unitFloat(math.MaxInt64) != 1 {
		t.Fatalf("retryAt = %d is not the first Int63 value Float64 redraws", retryAt)
	}
	p63 := math.Ldexp(1, -63)
	cases := []struct {
		name string
		p    float64
		want int64 // -1: only check the cut against the float expression
	}{
		{"zero", 0, 0},
		{"negative zero", math.Copysign(0, -1), 0},
		{"negative", -0.25, 0},
		{"-Inf", math.Inf(-1), 0},
		{"NaN", math.NaN(), 0},
		{"smallest subnormal", math.SmallestNonzeroFloat64, 1},
		{"largest subnormal", math.Float64frombits(0x000fffffffffffff), 1},
		{"1e-300", 1e-300, 1},
		{"below 2^-63", math.Nextafter(p63, 0), 1},
		{"2^-63", p63, 1},
		{"above 2^-63", math.Nextafter(p63, 1), 2},
		{"0.001", 0.001, -1},
		{"0.5", 0.5, 1<<62 - 256}, // float64(x) rounds up to 2^62 from here
		{"below 1", math.Nextafter(1, 0), 1<<63 - 1535},
		{"1", 1, retryAt},
		{"above 1", 1.5, retryAt},
		{"+Inf", math.Inf(1), retryAt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			T := int64(newThreshold(tc.p))
			if tc.want >= 0 && T != tc.want {
				t.Fatalf("T(%g) = %d, want %d", tc.p, T, tc.want)
			}
			if !(tc.p > 0) {
				// Never draws: the source must stay untouched.
				src := &script{vals: []int64{0}}
				if threshold(T).draw(rand.New(src)) || src.next != 0 {
					t.Fatalf("p=%g drew from the source", tc.p)
				}
				return
			}
			if T < 1 || T > retryAt {
				t.Fatalf("T(%g) = %d outside [1, retryAt]", tc.p, T)
			}
			if unitFloat(T-1) >= tc.p {
				t.Fatalf("T(%g) = %d is not the smallest cut", tc.p, T)
			}
			if T < retryAt && unitFloat(T) < tc.p {
				t.Fatalf("unitFloat(T(%g)) = %g below p", tc.p, unitFloat(T))
			}
			for _, x := range []int64{T - 1, T, T + 1} {
				if x < 0 {
					continue
				}
				// x may sit at or above retryAt; the trailing 0 is what
				// both forms redraw to then.
				a, b := &script{vals: []int64{x, 0}}, &script{vals: []int64{x, 0}}
				got := threshold(T).draw(rand.New(a))
				want := rand.New(b).Float64() < tc.p
				if got != want || a.next != b.next {
					t.Fatalf("draw of %d: threshold %v after %d values, float %v after %d",
						x, got, a.next, want, b.next)
				}
			}
		})
	}
}

// sourceFor returns a seeded RNG over the identify path's SplitMix64
// stream or over math/rand's source, which training draws from.
func sourceFor(useMath bool, seed int64) *rand.Rand {
	if useMath {
		return rand.New(rand.NewSource(seed))
	}
	return xrand.New(seed)
}

// TestPathMatchesFloatReference replays every impairment mode, plus edge
// probabilities, through Path and the float reference on both source
// kinds: every decision and the stream position afterwards must agree.
func TestPathMatchesFloatReference(t *testing.T) {
	modes := append([]struct {
		name string
		cond Condition
	}{
		{"certain", Condition{LossRate: 1, DupRate: 1, ReorderRate: 2}},
		{"nan", Condition{LossRate: math.NaN(), DupRate: math.NaN(), ReorderRate: 0.3}},
		{"burst_edges", Condition{GEPGoodBad: 1, GEPBadGood: math.Inf(1), GEGoodLoss: -1, GEBadLoss: math.Nextafter(1, 0)}},
	}, impairmentModes...)
	for _, mode := range modes {
		for _, useMath := range []bool{false, true} {
			r1, r2 := sourceFor(useMath, 41), sourceFor(useMath, 41)
			p, ref := NewPath(mode.cond), &floatPath{c: mode.cond}
			for i := 0; i < 4096; i++ {
				if p.Drop(r1) != ref.Drop(r2) || p.Dup(r1) != ref.Dup(r2) || p.Reorder(r1) != ref.Reorder(r2) {
					t.Fatalf("%s (math/rand %v): packet %d diverged from the float draws", mode.name, useMath, i)
				}
				if mode.cond.Jitter(r1, time.Second) != mode.cond.Jitter(r2, time.Second) {
					t.Fatalf("%s (math/rand %v): jitter %d diverged", mode.name, useMath, i)
				}
			}
			if r1.Int63() != r2.Int63() {
				t.Fatalf("%s (math/rand %v): streams ended at different positions", mode.name, useMath)
			}
		}
	}
}

// FuzzBernoulliMatchesFloat64: for any probability bit pattern, seed and
// source kind, n threshold draws decide what n rng.Float64() < p draws
// decide and leave the stream at the same position.
func FuzzBernoulliMatchesFloat64(f *testing.F) {
	for _, p := range []float64{0, 1e-300, 0.001, 0.07, 0.5, math.Nextafter(1, 0), 1, math.Inf(1)} {
		f.Add(math.Float64bits(p), int64(1), false)
		f.Add(math.Float64bits(p), int64(2), true)
	}
	f.Add(math.Float64bits(math.NaN()), int64(3), false)
	f.Add(math.Float64bits(math.Ldexp(1, -63)), int64(4), true)
	f.Fuzz(func(t *testing.T, bits uint64, seed int64, useMath bool) {
		p := math.Float64frombits(bits)
		r1, r2 := sourceFor(useMath, seed), sourceFor(useMath, seed)
		th := newThreshold(p)
		for i := 0; i < 256; i++ {
			if got, want := th.draw(r1), floatDraw(p, r2); got != want {
				t.Fatalf("p=%g (bits %#x): draw %d = %v, Float64 says %v", p, bits, i, got, want)
			}
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("p=%g (bits %#x): streams ended at different positions", p, bits)
		}
	})
}

package netem

import (
	"testing"
	"time"

	"repro/internal/xrand"
)

// impairmentModes are the conditions the determinism contract is checked
// under: one per impairment mechanism, plus a kitchen-sink combination.
var impairmentModes = []struct {
	name string
	cond Condition
}{
	{"loss", Condition{LossRate: 0.07}},
	{"reorder", Condition{ReorderRate: 0.2}},
	{"dup", Condition{DupRate: 0.1}},
	{"jitter", Condition{RTTStdDev: 30 * time.Millisecond}},
	{"burst_loss", Condition{GEPGoodBad: 0.05, GEPBadGood: 0.4, GEGoodLoss: 0.002, GEBadLoss: 0.3}},
	{"combined", Condition{
		RTTStdDev: 20 * time.Millisecond, ReorderRate: 0.1, DupRate: 0.05,
		GEPGoodBad: 0.03, GEPBadGood: 0.5, GEBadLoss: 0.25,
	}},
}

// schedule replays n packets through a fresh Path and records every
// impairment decision (drop, dup, reorder, jitter) the condition makes
// under the given seed.
func schedule(cond Condition, seed int64, n int) []int64 {
	rng := xrand.New(seed)
	p := NewPath(cond)
	out := make([]int64, 0, 4*n)
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	for i := 0; i < n; i++ {
		out = append(out,
			b(p.Drop(rng)),
			b(p.Dup(rng)),
			b(p.Reorder(rng)),
			int64(cond.Jitter(rng, time.Second)))
	}
	return out
}

// TestImpairmentScheduleDeterministic: the impairment schedule is a pure
// function of (condition, seed) in every mode — same seed, same schedule;
// different seeds, distinct schedules.
func TestImpairmentScheduleDeterministic(t *testing.T) {
	const n = 512
	for _, mode := range impairmentModes {
		t.Run(mode.name, func(t *testing.T) {
			a := schedule(mode.cond, 7, n)
			b := schedule(mode.cond, 7, n)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed diverged at draw %d: %d vs %d", i, a[i], b[i])
				}
			}
			c := schedule(mode.cond, 8, n)
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatal("different seeds produced identical impairment schedules")
			}
		})
	}
}

// TestPathResetRestoresGoodState: a Gilbert–Elliott path stuck in the bad
// state returns to the good state on Reset, so every connection starts
// with a fresh channel.
func TestPathResetRestoresGoodState(t *testing.T) {
	cond := Condition{GEPGoodBad: 1, GEPBadGood: 0, GEBadLoss: 1}
	p := NewPath(cond)
	rng := xrand.New(1)
	if !p.Drop(rng) {
		t.Fatal("pGoodBad=1 with badLoss=1 must drop from the second draw on")
	}
	if !p.bad {
		t.Fatal("channel should be in the bad state")
	}
	p.Reset(cond)
	if p.bad {
		t.Fatal("Reset must restore the good state")
	}
}

// TestUnimpairedPathMatchesCondition: without extended knobs a Path is
// draw-for-draw identical to the float form of the condition's uniform
// loss, rng.Float64() < LossRate (floatDrop) — the bit-stability contract
// the probe hot path relies on.
func TestUnimpairedPathMatchesCondition(t *testing.T) {
	cond := Condition{LossRate: 0.1}
	r1, r2 := xrand.New(99), xrand.New(99)
	p := NewPath(cond)
	for i := 0; i < 2048; i++ {
		if p.Drop(r1) != floatDrop(cond, r2) {
			t.Fatalf("draw %d diverged from the float loss draw", i)
		}
	}
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Path.Drop consumed a different number of draws than the float loss draw")
	}
	if cond.Impaired() || p.Impaired() {
		t.Fatal("plain loss must not count as impaired")
	}
	for _, c := range []Condition{{ReorderRate: 0.1}, {DupRate: 0.1}, {GEBadLoss: 0.1}} {
		if !c.Impaired() || !NewPath(c).Impaired() {
			t.Fatal("extended knobs must count as impaired")
		}
	}
}

// TestGEBurstiness sanity-checks the Gilbert–Elliott model: with the
// default burst parameters, losses cluster — the conditional loss
// probability after a loss is far higher than the marginal rate.
func TestGEBurstiness(t *testing.T) {
	cond := Condition{GEPGoodBad: 0.05, GEPBadGood: 0.4, GEGoodLoss: 0.002, GEBadLoss: 0.3}
	rng := xrand.New(3)
	p := NewPath(cond)
	const n = 200_000
	losses, afterLoss, lossAfterLoss := 0, 0, 0
	prev := false
	for i := 0; i < n; i++ {
		d := p.Drop(rng)
		if d {
			losses++
		}
		if prev {
			afterLoss++
			if d {
				lossAfterLoss++
			}
		}
		prev = d
	}
	marginal := float64(losses) / n
	conditional := float64(lossAfterLoss) / float64(afterLoss)
	if marginal < 0.01 || marginal > 0.10 {
		t.Fatalf("marginal loss rate %.4f implausible for the configured chain", marginal)
	}
	if conditional < 2*marginal {
		t.Fatalf("losses do not cluster: P(loss|loss) = %.4f vs marginal %.4f", conditional, marginal)
	}
}

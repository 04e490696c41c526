// Package netem models the Internet path between a CAAI prober and a Web
// server the way the paper does: a network condition is reduced to a mean
// RTT, an RTT standard deviation, and a packet-loss rate, and conditions
// are drawn from empirical distributions measured against 5000 popular Web
// servers (the paper's Figs. 4, 10, and 11). The paper replays such
// conditions with NetEm on its testbed; we replay them directly in the
// round-driven simulation.
package netem

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/stats"
)

// Condition is one sampled network condition between the prober and a
// server. The paper's three dimensions (mean RTT, RTT standard deviation,
// uniform loss) cover its testbed emulation; the additional knobs below
// extend the model to the hostile conditions the evaluation matrix
// (internal/eval) sweeps: packet reordering, duplication, and bursty loss
// under a two-state Gilbert–Elliott channel. All extra knobs default to
// zero (off), and a condition with none of them set behaves — draw for
// draw on the RNG — exactly as before they existed.
type Condition struct {
	// MeanRTT is the average round-trip time of the real path. The
	// emulated environments require it to be below the emulated RTT.
	MeanRTT time.Duration
	// RTTStdDev is the standard deviation of the path RTT; it jitters
	// the RTT samples the server observes around the emulated value.
	RTTStdDev time.Duration
	// LossRate is the probability that any single packet (data or ACK)
	// is lost on the path, in [0, 1]. Ignored while a Gilbert–Elliott
	// burst-loss model is configured (GEBadLoss > 0).
	LossRate float64

	// ReorderRate is the probability that a data packet is overtaken by
	// its successor (NetEm-style adjacent swap), in [0, 1].
	ReorderRate float64
	// DupRate is the probability that a data packet arrives twice, each
	// copy acknowledged, in [0, 1].
	DupRate float64

	// Gilbert–Elliott burst loss: the path alternates between a good and
	// a bad state with per-packet transition probabilities GEPGoodBad and
	// GEPBadGood; packets drop with probability GEGoodLoss in the good
	// state and GEBadLoss in the bad state. The model is active when
	// GEBadLoss > 0, and then replaces the uniform LossRate. Per-path
	// state lives in a Path (see NewPath); Condition itself stays
	// immutable and safe to share.
	GEPGoodBad float64
	GEPBadGood float64
	GEGoodLoss float64
	GEBadLoss  float64
}

// String renders the condition compactly.
func (c Condition) String() string {
	s := fmt.Sprintf("rtt=%v±%v loss=%.2f%%", c.MeanRTT, c.RTTStdDev, c.LossRate*100)
	if c.ReorderRate > 0 {
		s += fmt.Sprintf(" reorder=%.1f%%", c.ReorderRate*100)
	}
	if c.DupRate > 0 {
		s += fmt.Sprintf(" dup=%.1f%%", c.DupRate*100)
	}
	if c.GEBadLoss > 0 {
		s += fmt.Sprintf(" ge=[%.2f%%/%.2f%% p=%.2f/%.2f]",
			c.GEGoodLoss*100, c.GEBadLoss*100, c.GEPGoodBad, c.GEPBadGood)
	}
	return s
}

// Impaired reports whether any of the extended impairments (reordering,
// duplication, burst loss) is active. The probe session uses it to keep
// the original, bit-stable fast path for plain conditions.
func (c Condition) Impaired() bool {
	return c.ReorderRate > 0 || c.DupRate > 0 || c.GEBadLoss > 0
}

// Lossless is the ideal testbed condition used for Fig. 3.
var Lossless = Condition{MeanRTT: 50 * time.Millisecond}

// Database holds the three empirical distributions a condition is drawn
// from. It is immutable and safe for concurrent use.
type Database struct {
	rtt    *stats.ECDF // seconds
	stddev *stats.ECDF // seconds
	loss   *stats.ECDF // fraction
}

// NewDatabase builds a condition database from the three distributions.
func NewDatabase(rtt, stddev, loss *stats.ECDF) *Database {
	return &Database{rtt: rtt, stddev: stddev, loss: loss}
}

// MeasuredDatabase returns the condition database digitised from the
// paper's measurements of 5000 popular Web servers (2010-2011): Fig. 4
// (mean RTT: almost all below 0.8 s), Fig. 10 (RTT standard deviation), and
// Fig. 11 (packet-loss rates from PCAP traces).
func MeasuredDatabase() *Database {
	rtt := stats.MustECDF([]stats.Anchor{
		{Value: 0.005, Cum: 0},
		{Value: 0.020, Cum: 0.10},
		{Value: 0.050, Cum: 0.30},
		{Value: 0.100, Cum: 0.55},
		{Value: 0.200, Cum: 0.80},
		{Value: 0.300, Cum: 0.90},
		{Value: 0.500, Cum: 0.97},
		{Value: 0.800, Cum: 0.995},
		{Value: 1.500, Cum: 1},
	})
	stddev := stats.MustECDF([]stats.Anchor{
		{Value: 0.0005, Cum: 0},
		{Value: 0.002, Cum: 0.30},
		{Value: 0.005, Cum: 0.50},
		{Value: 0.010, Cum: 0.65},
		{Value: 0.020, Cum: 0.80},
		{Value: 0.040, Cum: 0.90},
		{Value: 0.080, Cum: 0.97},
		{Value: 0.200, Cum: 1},
	})
	loss := stats.MustECDF([]stats.Anchor{
		{Value: 0.000, Cum: 0.35},
		{Value: 0.001, Cum: 0.50},
		{Value: 0.005, Cum: 0.65},
		{Value: 0.010, Cum: 0.75},
		{Value: 0.030, Cum: 0.85},
		{Value: 0.050, Cum: 0.90},
		{Value: 0.100, Cum: 0.95},
		{Value: 0.200, Cum: 0.98},
		{Value: 0.300, Cum: 1},
	})
	return NewDatabase(rtt, stddev, loss)
}

// Sample draws one condition (independent draws per dimension, as the
// paper's testbed emulation does).
func (db *Database) Sample(rng *rand.Rand) Condition {
	return Condition{
		MeanRTT:   time.Duration(db.rtt.Sample(rng) * float64(time.Second)),
		RTTStdDev: time.Duration(db.stddev.Sample(rng) * float64(time.Second)),
		LossRate:  db.loss.Sample(rng),
	}
}

// RTTCDF exposes the mean-RTT distribution (Fig. 4).
func (db *Database) RTTCDF() *stats.ECDF { return db.rtt }

// StdDevCDF exposes the RTT standard deviation distribution (Fig. 10).
func (db *Database) StdDevCDF() *stats.ECDF { return db.stddev }

// LossCDF exposes the packet-loss distribution (Fig. 11).
func (db *Database) LossCDF() *stats.ECDF { return db.loss }

// Jitter returns a normally distributed RTT perturbation for one emulated
// round, clamped so the perturbed RTT never drops below half the emulated
// value (ACK deferral can stretch but not reverse time).
func (c Condition) Jitter(rng *rand.Rand, emulated time.Duration) time.Duration {
	if c.RTTStdDev <= 0 {
		return 0
	}
	j := time.Duration(rng.NormFloat64() * float64(c.RTTStdDev))
	if j < -emulated/2 {
		j = -emulated / 2
	}
	return j
}

// Path is the stateful view of a Condition for one connection: it carries
// the Gilbert–Elliott channel state that Condition, being an immutable
// shared value, cannot, plus the condition's probabilities recast as
// integer Bernoulli thresholds (see threshold). A zero Path is unusable;
// call Reset before a gathering (the prober resets its Path per
// connection). Not safe for concurrent use.
type Path struct {
	cond     Condition
	impaired bool // cond.Impaired(), cached for the per-round check
	bad      bool // current Gilbert–Elliott channel state

	loss, dup, reorder                  threshold
	goodBad, badGood, goodLoss, badLoss threshold
}

// NewPath returns a path over cond, starting in the good state.
func NewPath(cond Condition) *Path {
	p := new(Path)
	p.Reset(cond)
	return p
}

// Reset re-points the path at cond and returns the channel to the good
// state, as a fresh connection would see it. It computes every
// probability's threshold once, so per-packet draws are one compare.
func (p *Path) Reset(cond Condition) {
	*p = Path{
		cond:     cond,
		impaired: cond.Impaired(),
		loss:     newThreshold(cond.LossRate),
		dup:      newThreshold(cond.DupRate),
		reorder:  newThreshold(cond.ReorderRate),
		goodBad:  newThreshold(cond.GEPGoodBad),
		badGood:  newThreshold(cond.GEPBadGood),
		goodLoss: newThreshold(cond.GEGoodLoss),
		badLoss:  newThreshold(cond.GEBadLoss),
	}
}

// Cond returns the condition the path is replaying.
func (p *Path) Cond() Condition { return p.cond }

// Impaired reports Cond().Impaired() without copying the condition.
func (p *Path) Impaired() bool { return p.impaired }

// Drop reports whether a single packet is lost. With a Gilbert–Elliott
// model configured it first advances the channel state (one draw), then
// draws the state's loss rate; otherwise it draws the uniform LossRate.
func (p *Path) Drop(rng *rand.Rand) bool {
	if p.cond.GEBadLoss <= 0 {
		return p.loss.draw(rng)
	}
	if p.bad {
		if p.badGood.draw(rng) {
			p.bad = false
		}
	} else if p.goodBad.draw(rng) {
		p.bad = true
	}
	if p.bad {
		return p.badLoss.draw(rng)
	}
	return p.goodLoss.draw(rng)
}

// Dup reports whether a data packet is duplicated. It draws from rng only
// when duplication is configured, so plain conditions keep their streams.
func (p *Path) Dup(rng *rand.Rand) bool { return p.dup.draw(rng) }

// Reorder reports whether a data packet is overtaken by its successor. It
// draws from rng only when reordering is configured.
func (p *Path) Reorder(rng *rand.Rand) bool { return p.reorder.draw(rng) }

// threshold is a probability p recast as a cut on rand.Int63, so that
// draw decides exactly what rng.Float64() < p decides, from exactly the
// same draws of any rand.Source, with one integer compare in place of
// Float64's conversion and divide. Float64 returns unitFloat(x) for
// x = rng.Int63(), drawing again while that rounds up to 1; unitFloat is
// monotone in x, so Float64() < p holds exactly when x is below the
// smallest x whose unitFloat reaches p. Zero means p <= 0 or NaN, which
// never draws.
type threshold int64

// retryAt is the smallest Int63 value that unitFloat rounds up to 1:
// Float64 discards it and every larger value and draws again.
var retryAt = firstAtLeast(1)

// unitFloat is math/rand's Float64 mapping of one Int63 draw.
func unitFloat(x int64) float64 { return float64(x) / (1 << 63) }

// firstAtLeast returns the smallest x in [0, MaxInt64] with
// unitFloat(x) >= p, or MaxInt64 when there is none (p > 1 or NaN). It
// searches the float expression itself rather than inverting it, so
// every rounding Float64 does is reproduced.
func firstAtLeast(p float64) int64 {
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if unitFloat(mid) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// newThreshold returns p's threshold. Probabilities that every Float64
// value lies below (p >= 1, +Inf) cut at retryAt: every kept draw passes.
func newThreshold(p float64) threshold {
	if !(p > 0) {
		return 0
	}
	return threshold(min(firstAtLeast(p), retryAt))
}

// draw reports whether one Bernoulli trial succeeds: rng.Float64() < p.
func (t threshold) draw(rng *rand.Rand) bool {
	for t != 0 {
		if x := rng.Int63(); x < retryAt {
			return x < int64(t)
		}
	}
	return false
}

package netem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestMeasuredDatabaseSampling(t *testing.T) {
	db := MeasuredDatabase()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		c := db.Sample(rng)
		if c.MeanRTT <= 0 || c.MeanRTT > 2*time.Second {
			t.Fatalf("MeanRTT = %v out of range", c.MeanRTT)
		}
		if c.RTTStdDev < 0 || c.RTTStdDev > 500*time.Millisecond {
			t.Fatalf("RTTStdDev = %v out of range", c.RTTStdDev)
		}
		if c.LossRate < 0 || c.LossRate > 0.3 {
			t.Fatalf("LossRate = %v out of range", c.LossRate)
		}
	}
}

func TestMeasuredRTTsBelowEmulated(t *testing.T) {
	// The paper picks a 1.0s emulated RTT because almost all real RTTs
	// are below 0.8s (Fig. 4); the database must reproduce that.
	db := MeasuredDatabase()
	if got := db.RTTCDF().CDF(0.8); got < 0.99 {
		t.Fatalf("P(RTT <= 0.8s) = %v, want >= 0.99", got)
	}
}

func TestLossCDFMassAtZero(t *testing.T) {
	// Fig. 11: a large fraction of paths show no loss at all.
	db := MeasuredDatabase()
	if got := db.LossCDF().CDF(0); got < 0.3 {
		t.Fatalf("P(loss = 0) = %v, want >= 0.3", got)
	}
}

// TestConditionDrop: a path over zero loss never drops, over certain loss
// always drops, and over loss 0.5 drops about half the packets.
func TestConditionDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	never := NewPath(Condition{})
	for i := 0; i < 100; i++ {
		if never.Drop(rng) {
			t.Fatal("zero-loss condition dropped a packet")
		}
	}
	always := NewPath(Condition{LossRate: 1})
	for i := 0; i < 100; i++ {
		if !always.Drop(rng) {
			t.Fatal("certain-loss condition passed a packet")
		}
	}
	half := NewPath(Condition{LossRate: 0.5})
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if half.Drop(rng) {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("drop fraction = %v, want ~0.5", frac)
	}
}

func TestJitterClamp(t *testing.T) {
	c := Condition{RTTStdDev: 10 * time.Second} // absurd jitter
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		j := c.Jitter(rand.New(rand.NewSource(seed)), time.Second)
		return j >= -500*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	zero := Condition{}
	if zero.Jitter(rng, time.Second) != 0 {
		t.Fatal("zero stddev must produce zero jitter")
	}
}

func TestConditionString(t *testing.T) {
	c := Condition{MeanRTT: 50 * time.Millisecond, LossRate: 0.015}
	if got := c.String(); got == "" {
		t.Fatal("empty String")
	}
}

func TestLosslessIsLossless(t *testing.T) {
	if Lossless.LossRate != 0 || Lossless.RTTStdDev != 0 {
		t.Fatal("Lossless condition must have zero loss and jitter")
	}
}

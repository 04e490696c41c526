package cc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

const rtt1s = time.Second

// newConnInCA returns a connection already in congestion avoidance at the
// given window.
func newConnInCA(cwnd float64) *Conn {
	c := NewConn(536, 2)
	c.Cwnd = cwnd
	c.Ssthresh = cwnd
	c.ObserveRTT(rtt1s)
	return c
}

// runRounds drives alg for rounds emulated RTTs at fixed rtt and returns
// the per-round window sizes.
func runRounds(alg Algorithm, c *Conn, rounds int, rtt time.Duration) []float64 {
	out := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		c.Round++
		acks := int(c.Cwnd)
		for i := 0; i < acks; i++ {
			alg.OnAck(c, 1, rtt)
		}
		c.Now += rtt
		out = append(out, c.Cwnd)
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	// Table I lists 16 algorithms; CAAI probes for 14 of them (HYBLA and
	// LP are excluded per Section III-A).
	if len(names) != 16 {
		t.Fatalf("registry has %d algorithms, want 16: %v", len(names), names)
	}
	caaiNames := CAAINames()
	if len(caaiNames) != 14 {
		t.Fatalf("CAAI scope has %d algorithms, want 14: %v", len(caaiNames), caaiNames)
	}
	for _, excluded := range []string{"HYBLA", "LP"} {
		info, ok := Lookup(excluded)
		if !ok || info.CAAI {
			t.Fatalf("%s must be registered but outside the CAAI scope", excluded)
		}
	}
	for _, n := range names {
		alg, err := New(n)
		if err != nil {
			t.Fatalf("New(%s): %v", n, err)
		}
		if alg.Name() != n {
			t.Fatalf("Name mismatch: registry %q vs instance %q", n, alg.Name())
		}
		info, ok := Lookup(n)
		if !ok || info.Name != n || info.Description == "" {
			t.Fatalf("Lookup(%s) incomplete: %+v", n, info)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("NOPE"); err == nil {
		t.Fatal("New(NOPE) should error")
	}
}

func TestRegistryDefaults(t *testing.T) {
	// The paper's Table I: RENO, BIC, CUBIC, CTCP are defaults somewhere.
	for _, n := range []string{"RENO", "BIC", "CUBIC1", "CUBIC2", "CTCP1", "CTCP2"} {
		info, _ := Lookup(n)
		if !info.Default {
			t.Errorf("%s should be marked default", n)
		}
	}
	for _, n := range []string{"VEGAS", "HTCP", "STCP"} {
		info, _ := Lookup(n)
		if info.Default {
			t.Errorf("%s should not be a default", n)
		}
	}
}

func TestFamilyString(t *testing.T) {
	if FamilyLinux.String() != "Linux" || FamilyWindows.String() != "Windows" {
		t.Fatal("family labels wrong")
	}
	if Family(99).String() == "" {
		t.Fatal("unknown family must still render")
	}
}

// TestMultiplicativeDecrease checks each algorithm's beta = ssthresh/cwnd
// at a large window, the primary CAAI feature (Section III-B).
func TestMultiplicativeDecrease(t *testing.T) {
	tests := []struct {
		name   string
		lo, hi float64 // acceptable beta range at cwnd=512
	}{
		{"RENO", 0.49, 0.51},
		{"BIC", 0.79, 0.81},
		{"CUBIC1", 0.79, 0.81},
		{"CUBIC2", 0.69, 0.71},
		{"CTCP1", 0.49, 0.51},
		{"CTCP2", 0.49, 0.51},
		{"STCP", 0.87, 0.88},
		{"HSTCP", 0.60, 0.70}, // b(512) ~ 0.365 -> beta ~ 0.635
		{"VEGAS", 0.49, 0.51},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			alg, err := New(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			c := newConnInCA(512)
			alg.Reset(c)
			c.Cwnd = 512
			beta := alg.Ssthresh(c) / 512
			if beta < tc.lo || beta > tc.hi {
				t.Fatalf("beta = %v, want in [%v, %v]", beta, tc.lo, tc.hi)
			}
		})
	}
}

// TestSsthreshBounds property-checks every algorithm: the new threshold is
// at least two packets and finite for any plausible window.
func TestSsthreshBounds(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				cwnd := 2 + rng.Float64()*2000
				alg, err := New(name)
				if err != nil {
					return false
				}
				c := newConnInCA(cwnd)
				alg.Reset(c)
				c.Cwnd = cwnd
				th := alg.Ssthresh(c)
				return th >= 2 && !math.IsNaN(th) && !math.IsInf(th, 0)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGrowthMonotoneLossBased property-checks that loss-based algorithms
// never shrink the window on ACKs under a constant RTT.
func TestGrowthMonotoneLossBased(t *testing.T) {
	for _, name := range []string{"RENO", "BIC", "CUBIC1", "CUBIC2", "HSTCP", "HTCP", "ILLINOIS", "STCP", "VENO", "WESTWOOD", "CTCP1", "CTCP2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			alg, _ := New(name)
			c := newConnInCA(50)
			alg.Reset(c)
			ws := runRounds(alg, c, 12, rtt1s)
			for i := 1; i < len(ws); i++ {
				if ws[i] < ws[i-1]-1e-9 {
					t.Fatalf("window shrank at round %d: %v -> %v", i, ws[i-1], ws[i])
				}
			}
		})
	}
}

func TestRenoLinearGrowth(t *testing.T) {
	alg := NewReno()
	c := newConnInCA(100)
	alg.Reset(c)
	ws := runRounds(alg, c, 5, rtt1s)
	for i, w := range ws {
		want := 101 + float64(i)
		if math.Abs(w-want) > 0.2 {
			t.Fatalf("round %d: w = %v, want ~%v", i, w, want)
		}
	}
}

func TestSTCPExponentialGrowth(t *testing.T) {
	alg := NewSTCP()
	c := newConnInCA(500)
	alg.Reset(c)
	ws := runRounds(alg, c, 6, rtt1s)
	for i := 1; i < len(ws); i++ {
		ratio := ws[i] / ws[i-1]
		if ratio < 1.015 || ratio > 1.025 {
			t.Fatalf("round %d: growth ratio %v, want ~1.02", i, ratio)
		}
	}
}

func TestHSTCPResponseFunction(t *testing.T) {
	a, b := hstcpAB(38)
	if a != 1 || b != 0.5 {
		t.Fatalf("at low window: a=%v b=%v, want 1, 0.5", a, b)
	}
	a512, b512 := hstcpAB(512)
	if b512 <= 0.3 || b512 >= 0.45 {
		t.Fatalf("b(512) = %v, want ~0.365", b512)
	}
	if a512 < 3 || a512 > 12 {
		t.Fatalf("a(512) = %v, want mid-single-digits", a512)
	}
	// a(w) grows with w; b(w) shrinks with w.
	a83k, b83k := hstcpAB(83000)
	if a83k <= a512 || b83k >= b512 {
		t.Fatalf("HSTCP response not monotone: a=%v->%v b=%v->%v", a512, a83k, b512, b83k)
	}
}

// TestHSTCPHoistedLogsBitIdentical: a(w) and b(w) with the hoisted log
// constants equal, bit for bit, the closed forms evaluated with every
// math.Log call inline.
func TestHSTCPHoistedLogsBitIdentical(t *testing.T) {
	for w := 30.0; w < 90000; w = w*1.01 + 0.37 {
		logRatio := (math.Log(w) - math.Log(hstcpLowWindow)) /
			(math.Log(hstcpHighWindow) - math.Log(hstcpLowWindow))
		wantB := hstcpLowB + (hstcpHighB-hstcpLowB)*logRatio
		wantA := w * w * (0.078 / math.Pow(w, 1.2)) * 2 * wantB / (2 - wantB)
		if wantA < 1 {
			wantA = 1
		}
		if w <= hstcpLowWindow {
			wantA, wantB = 1, hstcpLowB
		}
		a, b := hstcpAB(w)
		if math.Float64bits(a) != math.Float64bits(wantA) || math.Float64bits(b) != math.Float64bits(wantB) {
			t.Fatalf("hstcpAB(%v) = %v, %v; inline logs give %v, %v", w, a, b, wantA, wantB)
		}
	}
}

func TestBICBinarySearchPhases(t *testing.T) {
	alg := NewBIC()
	c := newConnInCA(512)
	alg.Reset(c)
	c.Cwnd = 512
	alg.Ssthresh(c) // sets lastMax = 512
	if alg.lastMax != 512 {
		t.Fatalf("lastMax = %v, want 512", alg.lastMax)
	}
	// Far below the maximum: linear increase, cnt = cwnd/16.
	if cnt := alg.count(300); math.Abs(cnt-300.0/16) > 1e-9 {
		t.Fatalf("linear-phase cnt = %v", cnt)
	}
	// Close to the maximum: smooth binary search, slow growth.
	if cnt := alg.count(511); cnt < 511*20/4-1 {
		t.Fatalf("smooth-phase cnt = %v, want large", cnt)
	}
	// Fast convergence shrinks the remembered maximum on a second loss.
	c.Cwnd = 400
	alg.Ssthresh(c)
	want := 400 * (1 + bicBeta) / 2
	if math.Abs(alg.lastMax-want) > 1e-9 {
		t.Fatalf("fast convergence lastMax = %v, want %v", alg.lastMax, want)
	}
}

func TestBICLowWindowIsReno(t *testing.T) {
	alg := NewBIC()
	c := newConnInCA(10)
	alg.Reset(c)
	c.Cwnd = 10
	if got := alg.Ssthresh(c); got != 5 {
		t.Fatalf("low-window beta: ssthresh = %v, want 5", got)
	}
}

func TestCubicConcaveThenConvex(t *testing.T) {
	alg := NewCubic(CubicLinux2626)
	c := newConnInCA(512)
	alg.Reset(c)
	c.Cwnd = 512
	c.Ssthresh = alg.Ssthresh(c) // loss at 512: lastMax=512, target ~358
	c.Cwnd = c.Ssthresh
	ws := runRounds(alg, c, 16, rtt1s)
	// Increments shrink while approaching lastMax (concave), then grow
	// (convex).
	incs := make([]float64, 0, len(ws)-1)
	for i := 1; i < len(ws); i++ {
		incs = append(incs, ws[i]-ws[i-1])
	}
	minIdx := 0
	for i, inc := range incs {
		if inc < incs[minIdx] {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(incs)-1 {
		t.Fatalf("cubic increments not concave-then-convex: %v", incs)
	}
	if incs[len(incs)-1] < 2*incs[minIdx] {
		t.Fatalf("no convex acceleration: %v", incs)
	}
}

func TestCubicVersionsDifferInBeta(t *testing.T) {
	c1, c2 := NewCubic(CubicLinux2625), NewCubic(CubicLinux2626)
	conn := newConnInCA(512)
	c1.Reset(conn)
	c2.Reset(conn)
	conn.Cwnd = 512
	b1 := c1.Ssthresh(conn) / 512
	conn.Cwnd = 512
	b2 := c2.Ssthresh(conn) / 512
	if math.Abs(b1-0.7998) > 0.001 || math.Abs(b2-0.70019) > 0.001 {
		t.Fatalf("betas = %v, %v; want ~0.8 and ~0.7", b1, b2)
	}
	if c1.Name() != "CUBIC1" || c2.Name() != "CUBIC2" {
		t.Fatal("version names wrong")
	}
}

func TestCTCPQuantization(t *testing.T) {
	t1 := NewCTCP(CTCPWindows2003)
	if got := t1.quantize(800 * time.Millisecond); got != time.Second {
		t.Fatalf("2003 quantize(800ms) = %v, want 1s", got)
	}
	if got := t1.quantize(time.Second); got != time.Second {
		t.Fatalf("2003 quantize(1s) = %v, want 1s", got)
	}
	t2 := NewCTCP(CTCPWindows2008)
	if got := t2.quantize(800 * time.Millisecond); got != 800*time.Millisecond {
		t.Fatalf("2008 quantize(800ms) = %v, want exact", got)
	}
}

func TestCTCPDelayWindowGrowsAndCollapses(t *testing.T) {
	alg := NewCTCP(CTCPWindows2008)
	c := newConnInCA(200)
	alg.Reset(c)
	// Constant RTT at the base: dwnd grows (diff = 0 < gamma).
	runRounds(alg, c, 6, 800*time.Millisecond)
	if alg.dwnd <= 0 {
		t.Fatalf("dwnd = %v, want growth at zero queue", alg.dwnd)
	}
	grown := alg.dwnd
	// RTT step: queue estimate exceeds gamma, dwnd collapses.
	runRounds(alg, c, 4, time.Second)
	if alg.dwnd >= grown {
		t.Fatalf("dwnd = %v, want collapse after RTT step (was %v)", alg.dwnd, grown)
	}
}

func TestCTCP2003InsensitiveToRTTStep(t *testing.T) {
	alg := NewCTCP(CTCPWindows2003)
	c := newConnInCA(200)
	alg.Reset(c)
	runRounds(alg, c, 6, 800*time.Millisecond)
	before := alg.dwnd
	runRounds(alg, c, 4, time.Second) // quantizes to the same tick
	if alg.dwnd <= before {
		t.Fatalf("2003 dwnd should keep growing across the step: %v -> %v", before, alg.dwnd)
	}
}

func TestCTCPLowWindowIsReno(t *testing.T) {
	alg := NewCTCP(CTCPWindows2008)
	c := newConnInCA(30) // below the 41-packet threshold
	alg.Reset(c)
	runRounds(alg, c, 5, rtt1s)
	if alg.dwnd != 0 {
		t.Fatalf("dwnd = %v below low window, want 0", alg.dwnd)
	}
}

func TestHTCPAlphaRamp(t *testing.T) {
	alg := NewHTCP()
	c := newConnInCA(100)
	alg.Reset(c)
	// Within the first second: RENO-like.
	c.Now = 500 * time.Millisecond
	if a := alg.alpha(c); a != 1 {
		t.Fatalf("alpha before deltaL = %v, want 1", a)
	}
	// Long after: quadratic ramp.
	c.Now = 10 * time.Second
	if a := alg.alpha(c); a < 10 {
		t.Fatalf("alpha after 10s = %v, want large", a)
	}
}

func TestHTCPBetaFromRTTRatio(t *testing.T) {
	alg := NewHTCP()
	c := newConnInCA(100)
	alg.Reset(c)
	// Equal min and max RTT: ratio 1 clamps to 0.8.
	alg.OnAck(c, 1, rtt1s)
	c.Cwnd = 100
	if th := alg.Ssthresh(c); math.Abs(th/100-0.8) > 1e-9 {
		t.Fatalf("beta = %v, want 0.8", th/100)
	}
	// Wildly varying RTT: ratio clamps to 0.5.
	alg.OnAck(c, 1, 100*time.Millisecond)
	alg.OnAck(c, 1, rtt1s)
	c.Cwnd = 100
	if th := alg.Ssthresh(c); math.Abs(th/100-0.5) > 1e-9 {
		t.Fatalf("beta = %v, want 0.5", th/100)
	}
}

func TestIllinoisAlphaBetaFromDelay(t *testing.T) {
	alg := NewIllinois()
	c := newConnInCA(100)
	alg.Reset(c)
	// Constant RTT: no queueing delay; alpha max, beta min.
	runRounds(alg, c, 3, 800*time.Millisecond)
	if alg.alpha != illAlphaMax {
		t.Fatalf("alpha = %v, want max %v", alg.alpha, illAlphaMax)
	}
	if alg.beta != illBetaMin {
		t.Fatalf("beta = %v, want min %v", alg.beta, illBetaMin)
	}
	// Large queueing delay: alpha collapses, beta rises to max.
	runRounds(alg, c, 3, 1600*time.Millisecond)
	if alg.alpha > 1 {
		t.Fatalf("alpha under delay = %v, want small", alg.alpha)
	}
	if alg.beta != illBetaMax {
		t.Fatalf("beta under delay = %v, want max", alg.beta)
	}
}

func TestIllinoisSmallWindowBase(t *testing.T) {
	alg := NewIllinois()
	c := newConnInCA(10) // below winThresh
	alg.Reset(c)
	runRounds(alg, c, 3, rtt1s)
	if alg.alpha != illAlphaBase || alg.beta != illBetaBase {
		t.Fatalf("small-window params = %v/%v, want base", alg.alpha, alg.beta)
	}
}

func TestVegasEquilibrium(t *testing.T) {
	alg := NewVegas()
	c := newConnInCA(50)
	alg.Reset(c)
	// Base RTT 0.8s, then persistent 1.0s: diff = w/4 > beta, so the
	// window decreases toward the equilibrium rather than growing.
	runRounds(alg, c, 2, 800*time.Millisecond)
	start := c.Cwnd
	runRounds(alg, c, 6, rtt1s)
	if c.Cwnd >= start {
		t.Fatalf("vegas window grew under queueing delay: %v -> %v", start, c.Cwnd)
	}
}

func TestVegasGrowsAtBaseRTT(t *testing.T) {
	alg := NewVegas()
	c := newConnInCA(50)
	alg.Reset(c)
	ws := runRounds(alg, c, 6, rtt1s) // rtt == base: diff 0 < alpha
	if ws[len(ws)-1] <= ws[0] {
		t.Fatalf("vegas did not grow at base RTT: %v", ws)
	}
}

func TestVenoBetaDependsOnBacklog(t *testing.T) {
	alg := NewVeno()
	c := newConnInCA(100)
	alg.Reset(c)
	runRounds(alg, c, 3, rtt1s) // no backlog
	c.Cwnd = 100
	if th := alg.Ssthresh(c); math.Abs(th/100-0.8) > 1e-9 {
		t.Fatalf("random-loss beta = %v, want 0.8", th/100)
	}
	runRounds(alg, c, 3, 1500*time.Millisecond) // large backlog
	cw := c.Cwnd
	if th := alg.Ssthresh(c); math.Abs(th/cw-0.5) > 1e-9 {
		t.Fatalf("congestive beta = %v, want 0.5", th/cw)
	}
}

func TestWestwoodBandwidthEstimate(t *testing.T) {
	alg := NewWestwood()
	c := newConnInCA(100)
	alg.Reset(c)
	// cwnd packets per 1s RTT for many rounds: the filtered bandwidth
	// estimate trails the (slowly growing) sending rate, so ssthresh =
	// bw * minRTT lands just below the final window -- unlike every
	// fixed-fraction algorithm.
	ws := runRounds(alg, c, 40, rtt1s)
	final := ws[len(ws)-1]
	th := alg.Ssthresh(c)
	if th < 0.6*final || th > 1.02*final {
		t.Fatalf("westwood ssthresh = %v, want near the estimated BDP ~%v", th, final)
	}
}

func TestWestwoodSsthreshIndependentOfCwnd(t *testing.T) {
	alg := NewWestwood()
	c := newConnInCA(100)
	alg.Reset(c)
	runRounds(alg, c, 20, rtt1s)
	th1 := alg.Ssthresh(c)
	c.Cwnd = 500 // the window itself does not matter, only the estimate
	th2 := alg.Ssthresh(c)
	if math.Abs(th1-th2) > 1e-9 {
		t.Fatalf("ssthresh depends on cwnd: %v vs %v", th1, th2)
	}
}

func TestYeahModesAndSsthresh(t *testing.T) {
	alg := NewYeAH()
	c := newConnInCA(400)
	alg.Reset(c)
	// Zero queue: fast (STCP) mode; beta = 1 - 1/8.
	runRounds(alg, c, 4, rtt1s)
	if alg.doingRenoNow != 0 {
		t.Fatal("should be in fast mode at zero queue")
	}
	cw := c.Cwnd
	if th := alg.Ssthresh(c); math.Abs(th/cw-0.875) > 0.01 {
		t.Fatalf("fast-mode beta = %v, want ~0.875", th/cw)
	}
}

func TestYeahPrecautionaryDecongestion(t *testing.T) {
	alg := NewYeAH()
	c := newConnInCA(400)
	alg.Reset(c)
	runRounds(alg, c, 3, 800*time.Millisecond)
	before := c.Cwnd
	runRounds(alg, c, 3, 1200*time.Millisecond) // queue = w/3 >> 80
	if c.Cwnd >= before {
		t.Fatalf("yeah did not decongest: %v -> %v", before, c.Cwnd)
	}
	if alg.doingRenoNow == 0 {
		t.Fatal("should have switched to reno mode")
	}
}

// TestTimeoutResetsToSlowStart drives each algorithm through the canonical
// timeout transition the sender performs and checks the invariants.
func TestTimeoutResetsToSlowStart(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			alg, _ := New(name)
			c := newConnInCA(512)
			alg.Reset(c)
			runRounds(alg, c, 3, rtt1s)
			th := alg.Ssthresh(c)
			c.Ssthresh = th
			c.Cwnd = 1
			alg.OnTimeout(c)
			if !c.InSlowStart() && th > 1 {
				t.Fatal("after timeout the connection must slow start")
			}
			// Growth must resume without panicking.
			runRounds(alg, c, 3, rtt1s)
			if c.Cwnd <= 1 {
				t.Fatalf("no growth after timeout: cwnd = %v", c.Cwnd)
			}
		})
	}
}

func TestHyblaRhoScaling(t *testing.T) {
	alg := NewHybla()
	c := newConnInCA(100)
	alg.Reset(c)
	// At a 1s RTT rho = 40 (capped 16): congestion avoidance gains
	// rho^2 per RTT -- far more aggressive than RENO.
	ws := runRounds(alg, c, 3, rtt1s)
	perRTT := ws[1] - ws[0]
	if perRTT < 100 {
		t.Fatalf("hybla CA gain = %v/RTT, want ~rho^2", perRTT)
	}
	// At the reference RTT rho = 1: plain RENO.
	alg2 := NewHybla()
	c2 := newConnInCA(100)
	alg2.Reset(c2)
	ws2 := runRounds(alg2, c2, 3, hyblaRTT0)
	if gain := ws2[1] - ws2[0]; gain > 1.5 {
		t.Fatalf("hybla at rtt0 gain = %v/RTT, want ~1", gain)
	}
}

func TestHyblaSlowStartBoost(t *testing.T) {
	alg := NewHybla()
	c := NewConn(536, 2)
	c.Ssthresh = 1 << 20
	alg.Reset(c)
	alg.OnAck(c, 1, rtt1s)
	// One ACK at rho=16 gains 2^16-1 packets (the capped exponent).
	if c.Cwnd < 1000 {
		t.Fatalf("hybla slow start gain = %v, want huge", c.Cwnd)
	}
}

func TestLPBacksOffUnderDelay(t *testing.T) {
	alg := NewLP()
	c := newConnInCA(100)
	alg.Reset(c)
	runRounds(alg, c, 3, 800*time.Millisecond) // establishes min delay
	runRounds(alg, c, 2, 1600*time.Millisecond)
	if c.Cwnd > 50 {
		t.Fatalf("LP did not back off under queueing delay: cwnd = %v", c.Cwnd)
	}
}

func TestLPRenoLikeWithoutDelay(t *testing.T) {
	alg := NewLP()
	c := newConnInCA(100)
	alg.Reset(c)
	ws := runRounds(alg, c, 5, rtt1s)
	for i := 1; i < len(ws); i++ {
		if ws[i] < ws[i-1] {
			t.Fatalf("LP shrank without delay signal: %v", ws)
		}
	}
	if math.Abs(ws[len(ws)-1]-105) > 1 {
		t.Fatalf("LP growth = %v, want RENO-like ~105", ws[len(ws)-1])
	}
}

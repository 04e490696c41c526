package cc

import (
	"math"
	"time"
)

// HSTCP parameters from RFC 3649 (HighSpeed TCP for Large Congestion
// Windows).
const (
	hstcpLowWindow  = 38.0
	hstcpHighWindow = 83000.0
	hstcpLowB       = 0.5
	hstcpHighB      = 0.1
)

// The log-window interpolation's constant terms, hoisted out of the
// per-ACK hstcpAB with the very math.Log calls it used to make, so every
// a(w) and b(w) stays bit-identical.
var (
	hstcpLogLow  = math.Log(hstcpLowWindow)
	hstcpLogSpan = math.Log(hstcpHighWindow) - math.Log(hstcpLowWindow)
)

// HSTCP is HighSpeed TCP (Floyd, RFC 3649; Linux tcp_highspeed.c): the
// additive increase a(w) and multiplicative decrease b(w) scale with the
// current window so large windows recover quickly. For windows at or below
// 38 packets HSTCP is exactly RENO.
type HSTCP struct{}

var _ Algorithm = (*HSTCP)(nil)

// NewHSTCP returns an HSTCP congestion avoidance component.
func NewHSTCP() *HSTCP { return &HSTCP{} }

// Name implements Algorithm.
func (*HSTCP) Name() string { return "HSTCP" }

// Reset implements Algorithm.
func (*HSTCP) Reset(*Conn) {}

// hstcpAB returns RFC 3649's a(w) (packets added per RTT) and b(w)
// (fraction of the window shed on loss). The kernel's hstcp_aimd_vals table
// is generated from exactly these closed forms; we evaluate them directly.
func hstcpAB(w float64) (a, b float64) {
	if w <= hstcpLowWindow {
		return 1, hstcpLowB
	}
	logRatio := (math.Log(w) - hstcpLogLow) / hstcpLogSpan
	b = hstcpLowB + (hstcpHighB-hstcpLowB)*logRatio
	// RFC 3649 response function: p(w) = 0.078/w^1.2, and
	// a(w) = w^2 * p(w) * 2*b(w) / (2 - b(w)).
	p := 0.078 / math.Pow(w, 1.2)
	a = w * w * p * 2 * b / (2 - b)
	if a < 1 {
		a = 1
	}
	return a, b
}

// OnAck implements Algorithm: slow start, then a(w) packets per RTT.
func (*HSTCP) OnAck(c *Conn, _ int, _ time.Duration) {
	if slowStart(c) {
		return
	}
	a, _ := hstcpAB(c.Cwnd)
	aiIncrease(c, c.Cwnd/a)
}

// Ssthresh implements Algorithm: w*(1 - b(w)), so the paper's beta lies
// between 0.5 (small windows) and 0.9 (huge windows).
func (*HSTCP) Ssthresh(c *Conn) float64 {
	_, b := hstcpAB(c.Cwnd)
	return clampSsthresh(c.Cwnd * (1 - b))
}

// OnTimeout implements Algorithm.
func (*HSTCP) OnTimeout(*Conn) {}

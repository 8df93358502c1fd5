package drive

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gapbench/benchmark/measure"
)

// PhaseReport is what one open-loop phase at a fixed offered rate showed.
type PhaseReport struct {
	OfferedQPS  float64
	AchievedQPS float64 // OK answers per second of phase
	Sent, OK    int
	// P50US..P99US are latencies from the due instant over every query sent,
	// a failed one counting as infinitely late; 0 when the sample is too
	// small for that percentile. The limit is applied to P90US.
	P50US, P90US, P99US float64
	// LateP50US, LateP90US and LateMaxUS say how late the generator itself
	// ran.
	LateP50US, LateP90US, LateMaxUS float64
	Met                             bool
	Why                             string // first reason the limit was missed
}

// maxFailedShare is the share of queries that may fail in a phase that still
// meets the limit.
const maxFailedShare = 0.01

// EvaluatePhase applies the latency limit to one open-loop phase. The phase
// meets it when the 90th percentile of latency-from-due-instant is within the
// limit, at most 1% of queries failed, the generator's own lateness at that
// percentile is under half the limit (else the phase measured the generator,
// not the daemon), and no backlog grew: the mean latency of the last quarter of the phase is at most twice
// that of the first quarter, or still under half the limit. The limit sits on
// p90, not p99: between identical phases on a shared two-core VM p99 is the
// host's stalls (20 to 50 ms, several a phase) and moved 12 to 60%, p90 a few
// percent. p99 is reported, with the daemon's layers.
func EvaluatePhase(samples []Sample, rate float64, dur, limit time.Duration) PhaseReport {
	rep := PhaseReport{OfferedQPS: rate, Sent: len(samples)}
	if len(samples) == 0 {
		rep.Why = "no queries"
		return rep
	}
	byDue := append([]Sample(nil), samples...)
	sort.SliceStable(byDue, func(i, j int) bool { return byDue[i].Intended.Before(byDue[j].Intended) })
	lat := make([]float64, len(byDue))
	late := make([]float64, len(byDue))
	for i := range byDue {
		s := &byDue[i]
		lat[i] = math.Inf(1)
		if s.OK {
			rep.OK++
			lat[i] = float64(s.Latency().Nanoseconds()) / 1e3
		}
		late[i] = float64(s.SendStart.Sub(s.Intended).Nanoseconds()) / 1e3
	}
	rep.AchievedQPS = float64(rep.OK) / dur.Seconds()
	sortedLate := measure.Sorted(late)
	rep.LateP50US = measure.Median(late)
	rep.LateMaxUS = sortedLate[len(sortedLate)-1]

	sorted := measure.Sorted(lat)
	rep.P50US, _ = measure.Percentile(sorted, 50)
	rep.P99US, _ = measure.Percentile(sorted, 99)
	var supported bool
	rep.P90US, supported = measure.Percentile(sorted, 90)
	rep.LateP90US, _ = measure.Percentile(sortedLate, 90)

	quarter := len(lat) / 4
	first, last := meanFinite(lat[:quarter]), meanFinite(lat[len(lat)-quarter:])
	limitUS := float64(limit.Microseconds())
	switch {
	case !supported:
		rep.Why = fmt.Sprintf("%d queries are too few for a 90th percentile", len(lat))
	case rep.LateP90US > limitUS/2:
		rep.Why = fmt.Sprintf("generator ran %.0fus late at p90, over half the limit: the phase measured the generator and is not scored", rep.LateP90US)
	case float64(rep.Sent-rep.OK) > maxFailedShare*float64(rep.Sent):
		rep.Why = fmt.Sprintf("%d of %d queries failed", rep.Sent-rep.OK, rep.Sent)
	case rep.P90US > limitUS:
		rep.Why = fmt.Sprintf("p90 %.0fus over the %.0fus limit", rep.P90US, limitUS)
	case last > 2*first && last > limitUS/2:
		rep.Why = fmt.Sprintf("backlog grew: mean latency %.0fus in the first quarter, %.0fus in the last", first, last)
	default:
		rep.Met = true
	}
	return rep
}

// meanFinite is the mean of the finite values of xs, 0 when there are none.
func meanFinite(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Staircase returns the achieved rate of the highest-offered phase that met
// the limit, 0 when none did.
func Staircase(phases []PhaseReport) float64 {
	best, rate := 0.0, 0.0
	for _, p := range phases {
		if p.Met && p.OfferedQPS > best {
			best, rate = p.OfferedQPS, p.AchievedQPS
		}
	}
	return rate
}

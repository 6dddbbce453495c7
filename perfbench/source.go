package main

import (
	"io"
	"sync/atomic"
	"time"

	"pinsql/internal/ingest"
)

// clock is the source's view of time; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pacer is an open-loop schedule shared by every tenant's source: trace
// second s is due at t0 + s/rate. A nil pacer is the closed loop, where a
// batch is due the moment it is pulled.
type pacer struct {
	rate float64 // trace seconds per wall-clock second
	t0   time.Time
}

// due is the wall-clock instant trace second sec is due.
func (p *pacer) due(sec int64) time.Time {
	return p.t0.Add(time.Duration(float64(sec) / p.rate * float64(time.Second)))
}

// memSource serves a generated trace to the fleet through the ingest.Source
// seam. Under a pacer a pull that comes early sleeps until its second is
// due, and a pull that comes late is counted as generator lateness. It
// stamps the instant each window's last second was handed over, which is
// where a closed-loop window's commit lag starts.
//
// Like every Source it has a single consumer; handoff is atomic because
// the commit callback reads it from another goroutine.
type memSource struct {
	tr    *tenantTrace
	clk   clock
	pace  *pacer
	pos   int
	stats sourceStats

	handoff []atomic.Int64 // per window: unix ns its last batch left Next
}

// sourceStats is the ingest layer's accounting, written by the consumer.
type sourceStats struct {
	pulls     int64
	nextNs    int64 // time inside Next, sleeps included
	blockedNs int64 // time asleep waiting for a batch to fall due
	lateNs    int64 // summed lateness of pulls made after their due time
	latePulls int64
}

func newMemSource(tr *tenantTrace, clk clock, pace *pacer) *memSource {
	return &memSource{tr: tr, clk: clk, pace: pace, handoff: make([]atomic.Int64, tr.windows)}
}

// Next implements ingest.Source.
func (s *memSource) Next() (ingest.Batch, error) {
	if s.pos >= len(s.tr.batches) {
		return ingest.Batch{}, io.EOF
	}
	start := s.clk.Now()
	b := s.tr.batches[s.pos]
	now := start
	if s.pace != nil {
		due := s.pace.due(b.Second)
		switch wait := due.Sub(start); {
		case wait > 0:
			s.clk.Sleep(wait)
			s.stats.blockedNs += int64(wait)
			now = s.clk.Now()
		case wait < 0:
			s.stats.lateNs += int64(-wait)
			s.stats.latePulls++
		}
	}
	s.pos++
	b.Last = s.pos == len(s.tr.batches)
	if s.pos%s.tr.windowSec == 0 {
		s.handoff[s.pos/s.tr.windowSec-1].Store(now.UnixNano())
	}
	s.stats.pulls++
	s.stats.nextNs += int64(s.clk.Now().Sub(start))
	return b, nil
}

// handoffAt is when window w's last second left the source (zero if it
// has not yet).
func (s *memSource) handoffAt(w int) time.Time {
	ns := s.handoff[w].Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Bounds implements ingest.Source; generated traces start at 0.
func (s *memSource) Bounds() (int64, int64) {
	return 0, int64(len(s.tr.batches)) * 1000
}

// Close implements ingest.Source.
func (s *memSource) Close() error { return nil }

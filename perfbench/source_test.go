package main

import (
	"io"
	"testing"
	"time"

	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
)

// fakeClock advances only when the source sleeps or the test says so.
type fakeClock struct {
	now   time.Time
	slept []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
}

// tinyTrace is a trace of windows × windowSec dense batches with one
// record per second.
func tinyTrace(windows, windowSec int) *tenantTrace {
	tr := &tenantTrace{id: "t", windows: windows, windowSec: windowSec}
	for s := 0; s < windows*windowSec; s++ {
		tr.batches = append(tr.batches, ingest.Batch{
			Second:  int64(s),
			Records: []dbsim.LogRecord{{TemplateID: "q", ArrivalMs: int64(s) * 1000}},
		})
	}
	return tr
}

func TestPacerDue(t *testing.T) {
	t0 := time.Unix(100, 0)
	p := &pacer{rate: 200, t0: t0}
	for sec, want := range map[int64]time.Duration{0: 0, 1: 5 * time.Millisecond, 200: time.Second, 960: 4800 * time.Millisecond} {
		if got := p.due(sec).Sub(t0); got != want {
			t.Errorf("due(%d) = t0+%v, want t0+%v", sec, got, want)
		}
	}
}

func TestOpenLoopSleepsEarlyAndCountsLate(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	t0 := clk.now
	s := newMemSource(tinyTrace(2, 2), clk, &pacer{rate: 2, t0: t0}) // second s due at t0 + s/2

	pull := func() ingest.Batch {
		t.Helper()
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pull() // second 0, due exactly now: neither early nor late
	clk.now = clk.now.Add(200 * time.Millisecond)
	pull() // second 1, due at t0+500ms: early by 300ms, so it sleeps
	if len(clk.slept) != 1 || clk.slept[0] != 300*time.Millisecond {
		t.Fatalf("slept %v, want [300ms]", clk.slept)
	}
	if got, want := s.handoffAt(0), t0.Add(500*time.Millisecond); !got.Equal(want) {
		t.Errorf("window 0 handed off at t0+%v, want t0+%v", got.Sub(t0), want.Sub(t0))
	}
	clk.now = t0.Add(2 * time.Second)
	pull() // second 2, due at t0+1s: one second late
	pull() // second 3, due at t0+1.5s: half a second late
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after the trace: %v, want io.EOF", err)
	}
	st := s.stats
	if st.pulls != 4 || st.latePulls != 2 || st.lateNs != int64(1500*time.Millisecond) || st.blockedNs != int64(300*time.Millisecond) {
		t.Errorf("stats %+v: want 4 pulls, 2 late by 1.5s in total, 300ms blocked", st)
	}
	if got, want := s.handoffAt(1), t0.Add(2*time.Second); !got.Equal(want) {
		t.Errorf("window 1 handed off at t0+%v, want t0+%v", got.Sub(t0), want.Sub(t0))
	}
}

func TestClosedLoopNeverSleeps(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := newMemSource(tinyTrace(1, 3), clk, nil)
	if !s.handoffAt(0).IsZero() {
		t.Fatal("window handed off before any pull")
	}
	for i := 0; i < 3; i++ {
		clk.now = clk.now.Add(time.Second)
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b.Last != (i == 2) {
			t.Errorf("batch %d: Last = %v", i, b.Last)
		}
	}
	if len(clk.slept) != 0 || s.stats.latePulls != 0 {
		t.Errorf("closed loop slept %v and counted %d late pulls", clk.slept, s.stats.latePulls)
	}
	if got := s.handoffAt(0); !got.Equal(clk.now) {
		t.Errorf("handoff %v, want the last pull %v", got, clk.now)
	}
}

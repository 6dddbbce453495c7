package parallel

import (
	"sync/atomic"
	"testing"
)

// TestPoolRunsAllTasks checks every submitted task executes exactly once
// and Close waits for stragglers.
func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	var n atomic.Int64
	for i := 0; i < 500; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.Close()
	if got := n.Load(); got != 500 {
		t.Fatalf("ran %d tasks, want 500", got)
	}
}

// TestPoolFIFO pins a single worker and checks that queued tasks run in
// submission order.
func TestPoolFIFO(t *testing.T) {
	p := NewPool(1)
	var order []int
	gate := make(chan struct{})
	// Occupy the only worker so the later submissions pile up in queue.
	p.Submit(func() { <-gate })
	for i := 0; i < 6; i++ {
		p.Submit(func() { order = append(order, i) })
	}
	close(gate)
	p.Close()
	if len(order) != 6 {
		t.Fatalf("ran %d tasks, want 6", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v, want submission order", order)
		}
	}
}

// TestPoolPanicPropagates checks a task panic is re-raised at Close and
// does not kill other tasks.
func TestPoolPanicPropagates(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	p.Submit(func() { panic("boom") })
	for i := 0; i < 50; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected Close to re-raise the task panic")
		} else if r != "boom" {
			t.Fatalf("panic = %v, want boom", r)
		}
		if got := ran.Load(); got != 50 {
			t.Fatalf("surviving tasks ran %d times, want 50", got)
		}
	}()
	p.Close()
}

// TestPoolSubmitAfterClosePanics locks the misuse contract.
func TestPoolSubmitAfterClosePanics(t *testing.T) {
	p := NewPool(1)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected Submit after Close to panic")
		}
	}()
	p.Submit(func() {})
}

package parallel

import (
	"sync"
)

// Pool is a long-lived fixed-size worker pool over one FIFO queue. The
// fleet scheduler uses it to multiplex many per-instance diagnosis and
// commit drains over a bounded set of workers; the sources that feed
// those drains play on their own goroutines, so a worker only ever runs
// CPU-bound work.
//
// The queue is unbounded — backpressure is the caller's job (the fleet
// sheds windows instead of letting the queue grow without bound).
//
// A panic inside a task is captured; the first one is re-raised on the
// goroutine that calls Close. This mirrors the package's ForEach/Blocks
// contract: worker panics never kill the process silently.
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []func()
	closed   bool
	panicked any
	wg       sync.WaitGroup
}

// NewPool starts a pool with the resolved worker count (see Resolve).
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	n := Resolve(workers)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for !p.closed && len(p.queue) == 0 {
			p.cond.Wait()
		}
		if len(p.queue) == 0 { // closed and drained
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.run(task)
	}
}

func (p *Pool) run(task func()) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.panicked == nil {
				p.panicked = r
			}
			p.mu.Unlock()
		}
	}()
	task()
}

// Submit enqueues a task; tasks start in submission order. Submitting to
// a closed pool panics — the fleet must stop producing before Close.
func (p *Pool) Submit(task func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("parallel: Submit on closed Pool")
	}
	p.queue = append(p.queue, task)
	p.cond.Signal()
}

// Close drains the queue, stops the workers, and re-raises the first task
// panic (if any) on the calling goroutine. Tasks queued before Close
// still run; Submit after Close panics.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}
}

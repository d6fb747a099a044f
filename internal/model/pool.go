package model

import (
	"runtime"
	"sync"
	"time"
)

// pool runs jobs on GOMAXPROCS workers, the caller among them. A job may push
// further jobs; they start in the order they were pushed, and run returns once
// nothing is queued or running, after every worker it started has stopped.
type pool[J any] struct {
	do func(J)

	mu      sync.Mutex
	more    sync.Cond // a job was pushed, or the pool drained
	queue   []J       // queue[head:] is waiting
	head    int
	running int
	busy    time.Duration // summed time inside do
	helpers sync.WaitGroup
}

func (p *pool[J]) push(j J) {
	p.mu.Lock()
	p.queue = append(p.queue, j)
	p.mu.Unlock()
	p.more.Signal()
}

// run works the queue to the end and returns the summed job time.
func (p *pool[J]) run() time.Duration {
	p.more.L = &p.mu
	for w := runtime.GOMAXPROCS(0); w > 1; w-- {
		p.helpers.Add(1)
		go p.help()
	}
	p.work()
	p.helpers.Wait()
	return p.busy
}

func (p *pool[J]) help() {
	defer p.helpers.Done()
	p.work()
}

func (p *pool[J]) work() {
	var busy time.Duration
	p.mu.Lock()
	for p.head < len(p.queue) || p.running > 0 {
		if p.head == len(p.queue) {
			p.more.Wait()
			continue
		}
		j := p.queue[p.head]
		if p.head++; p.head == len(p.queue) {
			p.queue, p.head = p.queue[:0], 0
		}
		p.running++
		p.mu.Unlock()
		start := time.Now()
		p.do(j)
		busy += time.Since(start)
		p.mu.Lock()
		if p.running--; p.running == 0 && p.head == len(p.queue) {
			p.more.Broadcast()
		}
	}
	p.busy += busy
	p.mu.Unlock()
}

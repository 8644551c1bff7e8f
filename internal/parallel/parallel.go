// Package parallel provides the shared, size-capped goroutine pool behind
// every data-parallel hot path of the secure engine: row-blocked modular
// GEMM, im2col lowering, SCM comparison-matrix construction and ABReLU
// group evaluation, the OT plane's pad, IKNP row-hash and combine loops,
// and the pipelined batch executor.
//
// The pool is deliberately simple: a process-wide semaphore caps the number
// of in-flight helper goroutines, and each Pool value is a per-call-site
// degree limit over that shared capacity. Work is partitioned into
// contiguous index blocks, so every parallel kernel writes disjoint output
// ranges and produces bit-identical results at any worker count — the
// property the engine's determinism tests pin down.
package parallel

import (
	"runtime"
	"sync"
)

// slots is the process-wide cap on helper goroutines. Callers always keep
// working inline when no slot is free, so parallel sections degrade to
// serial execution instead of queueing (which would risk deadlock under
// nested parallelism) or oversubscribing the machine.
var slots = make(chan struct{}, sharedCap())

func sharedCap() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// Pool caps the parallelism degree of one call site. The zero value and nil
// both run serially; New(0) sizes the pool to GOMAXPROCS.
type Pool struct {
	degree int
}

// New returns a pool with the given degree cap; workers == 0 selects
// GOMAXPROCS, the "as fast as the hardware allows" default.
func New(workers uint) *Pool {
	d := int(workers)
	if d <= 0 {
		d = runtime.GOMAXPROCS(0)
	}
	if d < 1 {
		d = 1
	}
	return &Pool{degree: d}
}

// Workers reports the effective degree (1 for a nil or zero pool).
func (p *Pool) Workers() int {
	if p == nil || p.degree < 1 {
		return 1
	}
	return p.degree
}

// Blocks partitions [0, n) into at most Workers() contiguous blocks and
// invokes fn on each. All fn invocations have returned when Blocks returns.
// fn must only write state owned by its [lo, hi) range; under that contract
// the result is identical for every worker count.
func (p *Pool) Blocks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if hi == n {
			// The caller always runs the final block itself: there is no
			// idle wait, and with every slot busy the whole loop is inline.
			fn(lo, hi)
			break
		}
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func(lo, hi int) {
				defer func() { <-slots; wg.Done() }()
				fn(lo, hi)
			}(lo, hi)
		default:
			fn(lo, hi)
		}
	}
	wg.Wait()
}

// For invokes fn(i) for every i in [0, n), blocked over the pool.
func (p *Pool) For(n int, fn func(i int)) {
	p.Blocks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

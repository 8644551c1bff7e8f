package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sync"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
)

// inputPool is how many distinct inputs a run draws from its seed; the
// measured loop cycles through them.
const inputPool = 16

// oracle holds a run's generated inputs and the plaintext reference
// output for each: the program under test sees only the inputs.
type oracle struct {
	inputs    [][]int64
	want      [][]int64
	tolerance int64
}

// newOracle draws the input pool from seed (quantized activations in
// [-amp, amp)) and evaluates the plaintext model in ring mode on the
// workload's carrier.
func newOracle(m *nn.Model, carrierBits uint, seed uint64, amp int, tolerance int64) (*oracle, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	o := &oracle{tolerance: tolerance}
	for i := 0; i < inputPool; i++ {
		x := make([]int64, m.InputShape().Numel())
		for j := range x {
			x[j] = int64(rng.Intn(2*amp) - amp)
		}
		want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(carrierBits)})
		if err != nil {
			return nil, fmt.Errorf("plaintext reference for input %d: %w", i, err)
		}
		o.inputs = append(o.inputs, x)
		o.want = append(o.want, want)
	}
	return o, nil
}

func (o *oracle) input(i int) []int64 { return o.inputs[i%inputPool] }

// check reports whether logits match input i's reference within the
// tolerance in every coordinate.
func (o *oracle) check(i int, logits []int64) bool {
	want := o.want[i%inputPool]
	if len(logits) != len(want) {
		return false
	}
	for k, v := range logits {
		d := v - want[k]
		if d < 0 {
			d = -d
		}
		if d > o.tolerance {
			return false
		}
	}
	return true
}

// tally is a run's failure accounting. An inference fails if it errors,
// is refused, or misses the reference; every failure keeps its first
// cause for the report. Safe for the fleet workload's concurrent clients.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  string
}

func (t *tally) pass() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(n int, cause string) {
	t.mu.Lock()
	t.attempted += n
	t.failed += n
	if t.firstErr == "" {
		t.firstErr = cause
	}
	t.mu.Unlock()
}

// judge verifies one completed inference against the oracle.
func (t *tally) judge(o *oracle, input int, logits []int64) {
	if o.check(input, logits) {
		t.pass()
		return
	}
	t.fail(1, fmt.Sprintf("input %d: logits %v miss the plaintext reference %v", input%inputPool, logits, o.want[input%inputPool]))
}

// logitDigest is an FNV-1a hash over the logits a workload designates as
// its deterministic prefix (outputs whose order and transcript seeds do
// not depend on timing), so two runs at one seed can be diffed.
type logitDigest struct{ h hash.Hash64 }

func newLogitDigest() *logitDigest { return &logitDigest{h: fnv.New64a()} }

// add folds one inference's logits in; a nil digest ignores them.
func (d *logitDigest) add(logits []int64) {
	if d == nil {
		return
	}
	var b [8]byte
	for _, v := range logits {
		u := uint64(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		d.h.Write(b[:])
	}
}

func (d *logitDigest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

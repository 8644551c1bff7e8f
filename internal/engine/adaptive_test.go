package engine

import (
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
)

func TestReducedABReLURingCorrectAndCheaper(t *testing.T) {
	// The per-layer ring adaptation: ABReLU on a contracted 12-bit ring
	// inside a 24-bit carrier must (a) keep results correct as long as
	// activations fit the narrow ring and (b) reduce the online traffic.
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	full, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: 6, ABReLUBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(24)})
	if d := maxAbsDiff(reduced.Logits, want); d > 8 {
		t.Errorf("reduced-ring logits %v vs plaintext %v", reduced.Logits, want)
	}
	// The ReLU node itself must be cheaper (comparison + mux at 12 bits
	// instead of 24, minus the zero-extension overhead).
	reluBytes := func(r *Result) uint64 {
		var b uint64
		for _, op := range r.PerOp {
			if op.Kind == "ABReLU" {
				b += op.Bytes
			}
		}
		return b
	}
	if rb, fb := reluBytes(reduced), reluBytes(full); rb >= fb {
		t.Errorf("reduced ABReLU bytes %d ≥ full %d", rb, fb)
	}
}

func TestReducedRingTooNarrowClips(t *testing.T) {
	// When activations exceed the narrow ring the contraction wraps and
	// results corrupt — the accuracy knob of Tables 7/8. 4 bits cannot
	// carry this model's activations.
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	good, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: 7, ABReLUBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(bad.Logits, good.Logits) == 0 {
		t.Error("4-bit ABReLU ring did not perturb the output at all")
	}
}

func TestRevealClassOnly(t *testing.T) {
	m := tinyModel(nn.PoolMax)
	x := input(64)
	full, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	classOnly, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: 8, RevealClassOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if classOnly.Logits != nil {
		t.Error("class-only run leaked logits")
	}
	// The secure argmax ties toward the later index; recompute the
	// expectation with the same rule.
	want := 0
	for i, v := range full.Logits {
		if v >= full.Logits[want] {
			want = i
		}
	}
	if classOnly.Class != want {
		t.Errorf("secure class %d, want %d (logits %v)", classOnly.Class, want, full.Logits)
	}
	if want := nn.Argmax(full.Logits); full.Class != want {
		t.Errorf("logit-revealing run reports class %d, want argmax %d", full.Class, want)
	}
}

func TestSecureMatchesPlaintextProxyDistribution(t *testing.T) {
	// Methodological validation: the plaintext Ring executor (and thus
	// the StochasticRing accuracy proxy) must classify like the real
	// protocol. Over a batch of random inputs at an ample carrier, the
	// secure argmax and the plaintext argmax must agree nearly always
	// (the residue is the ±1 truncation noise on near-tie logits).
	m := tinyModel(nn.PoolMax)
	agree := 0
	const n = 20
	for k := 0; k < n; k++ {
		x := make([]int64, 64)
		for i := range x {
			x[i] = int64((i*7+k*29)%31) - 15
		}
		res, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: uint64(90 + k)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(24)})
		if err != nil {
			t.Fatal(err)
		}
		if nn.Argmax(res.Logits) == nn.Argmax(want) {
			agree++
		}
	}
	if agree < n-2 {
		t.Errorf("secure vs plaintext argmax agreement %d/%d", agree, n)
	}
	t.Logf("argmax agreement: %d/%d", agree, n)
}

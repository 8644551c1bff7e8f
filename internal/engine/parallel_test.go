package engine

import (
	"testing"

	"aq2pnn/internal/nn"
)

// The Workers knob must never change observable results: the batch
// executor derives every image's randomness serially before any lane
// runs, so logits AND measured traffic are bit-identical at every
// parallelism degree. (Faithful truncation's ±1 LSB depends on the share
// randomness — scheduling-dependent PRG consumption would break this.)

func runBatch(t *testing.T, m *nn.Model, xs [][]int64, cfg Options) *BatchResult {
	t.Helper()
	res, err := RunLocalBatch(m, xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameBatch(t *testing.T, ref, got *BatchResult, workers uint) {
	t.Helper()
	if len(got.Logits) != len(ref.Logits) {
		t.Fatalf("Workers=%d: %d images, want %d", workers, len(got.Logits), len(ref.Logits))
	}
	for i := range ref.Logits {
		for j := range ref.Logits[i] {
			if got.Logits[i][j] != ref.Logits[i][j] {
				t.Fatalf("Workers=%d image %d logit %d: %d, want %d",
					workers, i, j, got.Logits[i][j], ref.Logits[i][j])
			}
		}
	}
	if got.Setup != ref.Setup {
		t.Errorf("Workers=%d setup stats %v, want %v", workers, got.Setup, ref.Setup)
	}
	if got.Online != ref.Online {
		t.Errorf("Workers=%d online stats %v, want %v", workers, got.Online, ref.Online)
	}
	if got.OnlinePerImage != ref.OnlinePerImage {
		t.Errorf("Workers=%d per-image stats %v, want %v", workers, got.OnlinePerImage, ref.OnlinePerImage)
	}
}

func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	m := tinyModel(nn.PoolMax)
	xs := [][]int64{input(64), input(64), input(64), input(64), input(64)}
	base := Options{CarrierBits: 24, Seed: 31, Workers: 1}
	ref := runBatch(t, m, xs, base)
	sweep := []uint{2, 4, 7}
	if raceEnabled {
		sweep = []uint{4} // race detector is ~10x slower; one parallel degree suffices
	}
	for _, w := range sweep {
		cfg := base
		cfg.Workers = w
		assertSameBatch(t, ref, runBatch(t, m, xs, cfg), w)
	}
}

func TestLeNet5BatchDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("LeNet5 batch is slow")
	}
	if raceEnabled {
		t.Skip("LeNet5 sweep exceeds the race detector's time budget; the tiny-model sweep covers the same code paths")
	}
	m, err := nn.ByName("lenet5", nn.ZooConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := m.InputShape().Numel()
	xs := make([][]int64, 2)
	for i := range xs {
		x := make([]int64, n)
		for j := range x {
			x[j] = int64((j*7+i*13)%23) - 11
		}
		xs[i] = x
	}
	base := Options{CarrierBits: 16, Seed: 3, Workers: 1}
	ref := runBatch(t, m, xs, base)
	cfg := base
	cfg.Workers = 3
	assertSameBatch(t, ref, runBatch(t, m, xs, cfg), 3)
}

func TestBatchRevealClassOnly(t *testing.T) {
	m := tinyModel(nn.PoolMax)
	xs := [][]int64{input(64), input(64), input(64)}
	open := runBatch(t, m, xs, Options{CarrierBits: 24, Seed: 17, Workers: 2})
	hidden := runBatch(t, m, xs, Options{CarrierBits: 24, Seed: 17, Workers: 2, RevealClassOnly: true})
	if hidden.Logits != nil {
		t.Fatal("RevealClassOnly batch leaked logits")
	}
	if len(hidden.Classes) != len(xs) || len(open.Classes) != len(xs) {
		t.Fatalf("got %d classes (%d logit-revealing), want %d", len(hidden.Classes), len(open.Classes), len(xs))
	}
	for i, logits := range open.Logits {
		want := nn.Argmax(logits)
		if hidden.Classes[i] != want {
			t.Errorf("image %d class %d, want argmax %d", i, hidden.Classes[i], want)
		}
		if open.Classes[i] != want {
			t.Errorf("image %d logit-revealing class %d, want argmax %d", i, open.Classes[i], want)
		}
	}
}

func TestRunLocalDeterministicAcrossWorkers(t *testing.T) {
	m := tinyModel(nn.PoolMax)
	x := input(64)
	ref, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: 5, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Logits {
		if got.Logits[i] != ref.Logits[i] {
			t.Fatalf("logit %d: %d, want %d", i, got.Logits[i], ref.Logits[i])
		}
	}
	if got.Online != ref.Online {
		t.Errorf("online stats %v, want %v", got.Online, ref.Online)
	}
}

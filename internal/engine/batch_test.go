package engine

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
)

func TestBatchInference(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	var xs [][]int64
	for b := 0; b < 3; b++ {
		x := make([]int64, 64)
		for i := range x {
			x[i] = int64((i*7+b*13)%31) - 15
		}
		xs = append(xs, x)
	}
	res, err := RunLocalBatch(m, xs, Options{CarrierBits: 24, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Logits) != 3 {
		t.Fatalf("got %d results", len(res.Logits))
	}
	// Each image must match the plaintext ring reference.
	for b, x := range xs {
		want, _ := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(24)})
		if d := maxAbsDiff(res.Logits[b], want); d > 8 {
			t.Errorf("image %d: secure %v vs plaintext %v", b, res.Logits[b], want)
		}
	}
	// Setup is paid once: batch setup ≈ single-run setup, and online
	// scales per image.
	single, err := RunLocal(m, xs[0], Options{CarrierBits: 24, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Setup.TotalBytes() != single.Setup.TotalBytes() {
		t.Errorf("batch setup %d vs single %d", res.Setup.TotalBytes(), single.Setup.TotalBytes())
	}
	perImage := res.OnlinePerImage.TotalBytes()
	if perImage == 0 || perImage > single.Online.TotalBytes()*11/10 {
		t.Errorf("per-image online %d vs single %d", perImage, single.Online.TotalBytes())
	}
}

func TestBatchValidation(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	if _, err := RunLocalBatch(m, nil, Options{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := RunLocalBatch(m, [][]int64{{1, 2}}, Options{}); err == nil {
		t.Error("short image accepted")
	}
}

// TestLocalBatchLogitsPinned pins the in-process path's logits at seed 1,
// two images, through RunLocalBatch at one and at two workers: Micro on a
// 16-bit carrier, against a digest captured before the OT dealer drew its
// correlations per view, and LeNet5 on a 32-bit carrier (the compute-bound
// benchmark workload's model and carrier), captured while the batch still
// queued its triples through a shared dealer. Neither the dealer's pads
// nor how a batch obtains its dealt triples may move a digest.
func TestLocalBatchLogitsPinned(t *testing.T) {
	for _, tc := range []struct {
		model string
		bits  uint
		want  uint64
	}{
		{"micro", 16, 0x3c22b73010fec5c9},
		{"lenet5", 32, 0x2097d9e97f574ed6},
	} {
		m, err := nn.ByName(tc.model, nn.ZooConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		xs := make([][]int64, 2)
		for b := range xs {
			xs[b] = make([]int64, m.InputShape().Numel())
			for i := range xs[b] {
				xs[b][i] = int64((i*13+b*7)%23) - 11
			}
		}
		for _, w := range []uint{1, 2} {
			res, err := RunLocalBatch(m, xs, Options{CarrierBits: tc.bits, Seed: 1, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, logits := range res.Logits {
				for _, v := range logits {
					h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
				}
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("%s Workers=%d: logits digest %#016x, pinned %#016x (logits %v)", tc.model, w, got, tc.want, res.Logits)
			}
		}
	}
}

package engine

import (
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/tensor"
)

// tinyModel builds a complete building block (Fig. 8): Conv+BNReQ → ReLU →
// MaxPool → FC, small enough to run the full 2PC protocol in tests.
func tinyModel(pool nn.PoolKind) *nn.Model {
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv := &nn.Conv{
		Geom: g,
		W:    make([]int64, 4*9),
		Bias: []int64{5, -3, 0, 7},
		Im:   []int64{3, 3, 3, 3},
		Ie:   4,
	}
	for i := range conv.W {
		conv.W[i] = int64(i%7) - 3
	}
	pg := tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	var poolOp nn.Op
	if pool == nn.PoolMax {
		poolOp = &nn.MaxPool{Geom: pg}
	} else {
		poolOp = &nn.AvgPool{Geom: pg}
	}
	fc := &nn.FC{In: 4 * 4 * 4, Out: 5, W: make([]int64, 4*4*4*5), Bias: []int64{1, 2, 3, 4, 5}, Im: []int64{1, 1, 1, 1, 1}, Ie: 2}
	for i := range fc.W {
		fc.W[i] = int64(i%5) - 2
	}
	return &nn.Model{
		Name: "tiny", InC: 1, InH: 8, InW: 8, InBits: 8,
		Nodes: []nn.Node{
			{Op: conv, Inputs: []int{-1}, Name: "conv1"},
			{Op: nn.ReLU{}, Inputs: []int{0}, Name: "relu1"},
			{Op: poolOp, Inputs: []int{1}, Name: "pool1"},
			{Op: nn.Flatten{}, Inputs: []int{2}, Name: "flatten"},
			{Op: fc, Inputs: []int{3}, Name: "fc"},
		},
	}
}

// residualModel exercises the Add path.
func residualModel() *nn.Model {
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, OutC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	mk := func(seed int64) *nn.Conv {
		c := &nn.Conv{Geom: g, W: make([]int64, 2*18), Im: []int64{1, 1}, Ie: 3}
		for i := range c.W {
			c.W[i] = (int64(i)+seed)%5 - 2
		}
		return c
	}
	return &nn.Model{
		Name: "res", InC: 2, InH: 4, InW: 4, InBits: 8,
		Nodes: []nn.Node{
			{Op: mk(0), Inputs: []int{-1}, Name: "conv1"},
			{Op: nn.ReLU{}, Inputs: []int{0}, Name: "relu1"},
			{Op: mk(3), Inputs: []int{1}, Name: "conv2"},
			{Op: nn.Add{}, Inputs: []int{2, 1}, Name: "add"},
			{Op: nn.ReLU{}, Inputs: []int{3}, Name: "relu2"},
		},
	}
}

func input(n int) []int64 {
	x := make([]int64, n)
	for i := range x {
		x[i] = int64((i*7)%31) - 15
	}
	return x
}

// maxAbsDiff compares secure logits against the ring-mode plaintext
// reference; the probabilistic ±1 truncation noise propagates, so small
// divergence is expected and bounded.
func maxAbsDiff(a, b []int64) int64 {
	var m int64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func TestSecureInferenceMatchesPlaintextRing(t *testing.T) {
	for _, pool := range []nn.PoolKind{nn.PoolMax, nn.PoolAvg} {
		m := tinyModel(pool)
		x := input(64)
		cfg := Options{CarrierBits: 24, Seed: 42}
		res, err := RunLocal(m, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(24)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Logits) != 5 {
			t.Fatalf("logits = %v", res.Logits)
		}
		if d := maxAbsDiff(res.Logits, want); d > 8 {
			t.Errorf("pool=%d: secure %v vs plaintext %v (max diff %d)", pool, res.Logits, want, d)
		}
	}
}

func TestSecureInferenceResidual(t *testing.T) {
	m := residualModel()
	x := input(32)
	res, err := RunLocal(m, x, Options{CarrierBits: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(24)})
	if d := maxAbsDiff(res.Logits, want); d > 4 {
		t.Errorf("residual secure %v vs plaintext %v", res.Logits, want)
	}
}

func TestDefaultCarrierIsPlusMargin(t *testing.T) {
	m := tinyModel(nn.PoolMax)
	if got, err := (Options{}).Carrier(m); err != nil || got.Bits != 12 {
		t.Errorf("default carrier = (%d bits, %v), want InBits+4 = 12", got.Bits, err)
	}
	if got, err := (Options{CarrierBits: 16}).Carrier(m); err != nil || got.Bits != 16 {
		t.Errorf("explicit carrier = (%d bits, %v)", got.Bits, err)
	}
	if _, err := (Options{CarrierBits: ring.MaxBits + 1}).Carrier(m); err == nil {
		t.Errorf("a %d-bit carrier resolved", ring.MaxBits+1)
	}
}

func TestPerOpProfileShape(t *testing.T) {
	m := tinyModel(nn.PoolMax)
	res, err := RunLocal(m, input(64), Options{CarrierBits: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOp) != len(m.Nodes) {
		t.Fatalf("profiled %d ops for %d nodes", len(res.PerOp), len(m.Nodes))
	}
	byKind := map[string]uint64{}
	for _, op := range res.PerOp {
		byKind[op.Kind] += op.Bytes
	}
	if byKind["ABReLU"] == 0 {
		t.Error("ABReLU reported zero communication")
	}
	if byKind["2PC-MaxPool"] == 0 {
		t.Error("MaxPool reported zero communication")
	}
	if byKind["Flatten"] != 0 {
		t.Error("Flatten should be free")
	}
	// Conv online comm is only the E exchange.
	var convBytes uint64
	for _, op := range res.PerOp {
		if op.Name == "conv1" {
			convBytes = op.Bytes
		}
	}
	carrier := ring.New(16)
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	wantE := uint64(2 * g.Patches() * g.PatchLen() * carrier.Bytes()) // sent + received
	// Under the default faithful truncation the conv node carries the E
	// exchange plus the BNReQ wrap-bit protocol.
	if convBytes < wantE {
		t.Errorf("conv1 online bytes = %d, below the E exchange %d", convBytes, wantE)
	}
	if res.Setup.TotalBytes() == 0 {
		t.Error("setup phase (F openings) reported zero bytes")
	}
	// The paper-mode ablation (local truncation) makes BNReQ free: the
	// conv node's online bytes are then exactly the E exchange.
	resLocal, err := RunLocal(m, input(64), Options{CarrierBits: 16, Seed: 1, LocalTrunc: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range resLocal.PerOp {
		if op.Name == "conv1" && op.Bytes != wantE {
			t.Errorf("local-trunc conv1 bytes = %d, want exactly %d", op.Bytes, wantE)
		}
	}
}

func TestOnlineCommScalesWithCarrier(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	r16, err := RunLocal(m, x, Options{CarrierBits: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r32, err := RunLocal(m, x, Options{CarrierBits: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r32.Online.TotalBytes()) / float64(r16.Online.TotalBytes())
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("online comm 32/16 ratio = %.2f", ratio)
	}
}

func TestAvgPoolCheaperThanMaxPool(t *testing.T) {
	// Sec. 6.5: average pooling needs no communication, max pooling does.
	x := input(64)
	rMax, err := RunLocal(tinyModel(nn.PoolMax), x, Options{CarrierBits: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rAvg, err := RunLocal(tinyModel(nn.PoolAvg), x, Options{CarrierBits: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rAvg.Online.TotalBytes() >= rMax.Online.TotalBytes() {
		t.Errorf("avg-pool comm %d ≥ max-pool comm %d", rAvg.Online.TotalBytes(), rMax.Online.TotalBytes())
	}
	// In the paper-mode ablation average pooling is AS-ALU only: zero
	// communication, as Sec. 6.5 states.
	rAvgLocal, err := RunLocal(tinyModel(nn.PoolAvg), x, Options{CarrierBits: 16, Seed: 4, LocalTrunc: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range rAvgLocal.PerOp {
		if op.Kind == "2PC-AvgPool" && op.Bytes != 0 {
			t.Errorf("local-trunc 2PC-AvgPool communicated %d bytes", op.Bytes)
		}
	}
}

func TestSplitModelRejectsSkeleton(t *testing.T) {
	m, _ := nn.ByName("resnet50-imagenet", nn.ZooConfig{Skeleton: true})
	g := ring.New(16)
	_, _, err := SplitModel(prg.NewSeeded(1), m, g)
	if err == nil {
		t.Error("skeleton model split accepted")
	}
}

func TestRunLocalValidatesInput(t *testing.T) {
	m := tinyModel(nn.PoolMax)
	if _, err := RunLocal(m, make([]int64, 3), Options{}); err == nil {
		t.Error("bad input length accepted")
	}
}

func TestLeNet5SecureEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full LeNet5 secure inference")
	}
	m := nn.LeNet5(nn.ZooConfig{Seed: 5})
	x := make([]int64, 28*28)
	for i := range x {
		x[i] = int64(i%23) - 11
	}
	res, err := RunLocal(m, x, Options{CarrierBits: 32, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(32)})
	// The ±1 LSB noise of each faithful truncation propagates through the
	// following layers' weights, so logits carry a few percent of noise;
	// the classification must be unaffected.
	if nn.Argmax(res.Logits) != nn.Argmax(want) {
		t.Errorf("secure argmax %d vs plaintext %d (%v vs %v)", nn.Argmax(res.Logits), nn.Argmax(want), res.Logits, want)
	}
	if d := maxAbsDiff(res.Logits, want); d > 100 {
		t.Errorf("LeNet5 logits diverged by %d", d)
	}
	t.Logf("LeNet5 online comm: %.3f MiB over %d rounds", res.Online.MiB(), res.Online.Rounds)
}

func BenchmarkSecureTinyModel(b *testing.B) {
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	for i := 0; i < b.N; i++ {
		if _, err := RunLocal(m, x, Options{CarrierBits: 16, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

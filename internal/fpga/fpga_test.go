package fpga

import (
	"fmt"
	"testing"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/tensor"
)

func TestZCU104ResourcesMatchTable3(t *testing.T) {
	r := ZCU104().Resources()
	if r.DSP != 1536 {
		t.Errorf("DSP = %d, want 1536 (Table 3)", r.DSP)
	}
	within := func(got, want, tol float64) bool {
		return got >= want*(1-tol) && got <= want*(1+tol)
	}
	if !within(float64(r.LUT), 120_000, 0.15) {
		t.Errorf("LUT = %d, want ≈120k", r.LUT)
	}
	if !within(float64(r.FF), 207_000, 0.15) {
		t.Errorf("FF = %d, want ≈207k", r.FF)
	}
	if !within(r.BRAM, 310, 0.15) {
		t.Errorf("BRAM = %.1f, want ≈310", r.BRAM)
	}
	vta := VTAResources()
	if vta.DSP != 268 || vta.LUT != 24_200 {
		t.Error("VTA reference row wrong")
	}
}

func TestPowerMatchesPaper(t *testing.T) {
	p := ZCU104().Power()
	// The paper measures 7.2–7.7 W per board.
	if p < 7.0 || p < 7.2-0.3 || p > 7.9 {
		t.Errorf("modelled board power %.2f W, want ≈7.2–7.7", p)
	}
}

func TestResourcesScaleWithArray(t *testing.T) {
	small := ZCU104()
	small.BlockIn, small.BlockOut = 8, 8
	if small.Resources().DSP >= ZCU104().Resources().DSP {
		t.Error("shrinking the AS-GEMM array must shrink DSP usage")
	}
}

// residualModel exercises the Add path: a residual connection around a
// conv, as in ResNet's basic block.
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
		Name: "residual", InC: 2, InH: 4, InW: 4, InBits: 8,
		Nodes: []nn.Node{
			{Op: mk(0), Inputs: []int{-1}, Name: "conv1"},
			{Op: nn.ReLU{}, Inputs: []int{0}, Name: "relu1"},
			{Op: mk(3), Inputs: []int{1}, Name: "conv2"},
			{Op: nn.Add{}, Inputs: []int{2, 1}, Name: "add"},
			{Op: nn.ReLU{}, Inputs: []int{3}, Name: "relu2"},
		},
	}
}

// poolModel chains ResNet's stem pooling — a 3×3/s2/p1 max-pool, whose
// windows overlap and shrink at the border — into a 3×3 average pool, a
// window that is not a power of two.
func poolModel() *nn.Model {
	g := tensor.ConvGeom{InC: 1, InH: 12, InW: 12, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv := &nn.Conv{Geom: g, W: make([]int64, 3*9), Bias: make([]int64, 3), Im: []int64{1, 1, 1}, Ie: 3}
	for i := range conv.W {
		conv.W[i] = int64(i%5) - 2
	}
	maxG := tensor.ConvGeom{InC: 3, InH: 12, InW: 12, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	avgG := tensor.ConvGeom{InC: 3, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 3, StrideW: 3}
	fc := &nn.FC{In: 3 * 2 * 2, Out: 4, W: make([]int64, 12*4), Bias: make([]int64, 4), Im: []int64{1, 1, 1, 1}, Ie: 2}
	for i := range fc.W {
		fc.W[i] = int64(i%3) - 1
	}
	return &nn.Model{
		Name: "pools", InC: 1, InH: 12, InW: 12, InBits: 8,
		Nodes: []nn.Node{
			{Op: conv, Inputs: []int{-1}, Name: "conv1"},
			{Op: nn.ReLU{}, Inputs: []int{0}, Name: "relu1"},
			{Op: &nn.MaxPool{Geom: maxG}, Inputs: []int{1}, Name: "maxpool"},
			{Op: &nn.AvgPool{Geom: avgG}, Inputs: []int{2}, Name: "avgpool"},
			{Op: nn.Flatten{}, Inputs: []int{3}, Name: "flatten"},
			{Op: fc, Inputs: []int{4}, Name: "fc"},
		},
	}
}

// forEachWire runs every graph of the cost-model pins at carriers 16 and
// 32 through engine.RunLocal and hands each measured result to check along
// with the estimate and the compiled program of the same model.
func forEachWire(t *testing.T, check func(name string, res *engine.Result, est Estimate, prog *Program)) {
	t.Helper()
	models := []*nn.Model{
		nn.Micro(nn.ZooConfig{Seed: 3}),
		nn.LeNet5(nn.ZooConfig{Seed: 3}),
		nn.Micro(nn.ZooConfig{Seed: 3, Pool: nn.PoolAvg}),
		residualModel(),
		poolModel(),
	}
	cfg := ZCU104()
	for _, m := range models {
		x := make([]int64, m.InputShape().Numel())
		for i := range x {
			x[i] = int64((i*7)%31) - 15
		}
		for _, bits := range []uint{16, 32} {
			r := ring.New(bits)
			name := fmt.Sprintf("%s@%d", m.Name, bits)
			res, err := engine.RunLocal(m, x, engine.Options{CarrierBits: bits, Seed: 5})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			est, err := cfg.EstimateModel(m, r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			prog, err := Compile(cfg, m, r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name, res, est, prog)
		}
	}
}

// TestPerOpCommMatchesEngineProfile pins the cost model to the wire node
// by node: each node's EXCH bytes and rounds in the compiled program equal
// the engine's measured per-node traffic at party i. A protocol change
// that moves a byte or a round without updating the program fails here.
func TestPerOpCommMatchesEngineProfile(t *testing.T) {
	forEachWire(t, func(name string, res *engine.Result, est Estimate, _ *Program) {
		if len(est.PerOp) != len(res.PerOp) {
			t.Fatalf("%s: %d program nodes, %d measured", name, len(est.PerOp), len(res.PerOp))
		}
		for i, op := range res.PerOp {
			if got := est.PerOp[i]; got.Bytes != op.Bytes || got.Rounds != op.Rounds {
				t.Errorf("%s node %s: program %d B / %d rounds, measured %d B / %d rounds",
					name, op.Name, got.Bytes, got.Rounds, op.Bytes, op.Rounds)
			}
		}
	})
}

// TestAnalyticCommMatchesMeasured pins the estimate's totals: its bytes
// and rounds (the output reveal included) equal the measured online
// traffic, and its cycles are the compiled program's.
func TestAnalyticCommMatchesMeasured(t *testing.T) {
	cfg := ZCU104()
	forEachWire(t, func(name string, res *engine.Result, est Estimate, prog *Program) {
		if est.Comm.Bytes != res.Online.TotalBytes() || est.Comm.Rounds != res.Online.Rounds {
			t.Errorf("%s: estimate %d B / %d rounds, measured online %d B / %d rounds",
				name, est.Comm.Bytes, est.Comm.Rounds, res.Online.TotalBytes(), res.Online.Rounds)
		}
		if cycles, _ := cfg.Simulate(prog); est.Cycles != cycles {
			t.Errorf("%s: estimate %d cycles, program %d", name, est.Cycles, cycles)
		}
	})
}

func TestEstimateCommScalesWithCarrier(t *testing.T) {
	m := nn.Micro(nn.ZooConfig{Skeleton: true})
	e16, err := ZCU104().EstimateModel(m, ring.New(16))
	if err != nil {
		t.Fatal(err)
	}
	e32, err := ZCU104().EstimateModel(m, ring.New(32))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(e32.Comm.Bytes) / float64(e16.Comm.Bytes)
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("comm ratio 32/16 = %.2f", ratio)
	}
	if e32.ThroughputFPS >= e16.ThroughputFPS {
		t.Error("wider carrier should reduce throughput")
	}
}

func TestEstimateResNet50Magnitudes(t *testing.T) {
	// Table 4 sanity: ResNet50-ImageNet at 16-bit should land within the
	// paper's order of magnitude — comm of several hundred MiB to ~2 GiB
	// and throughput in the 0.02–0.3 fps band, with efficiency far above
	// the GPU baselines.
	m, err := nn.ByName("resnet50-imagenet", nn.ZooConfig{Skeleton: true})
	if err != nil {
		t.Fatal(err)
	}
	est, err := ZCU104().EstimateModel(m, ring.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if est.CommMiB() < 300 || est.CommMiB() > 2500 {
		t.Errorf("ResNet50 comm = %.0f MiB, expected hundreds to ~2000", est.CommMiB())
	}
	if est.ThroughputFPS < 0.02 || est.ThroughputFPS > 0.5 {
		t.Errorf("ResNet50 throughput = %.3f fps", est.ThroughputFPS)
	}
	if est.EfficiencyFPSPerW < 0.001 {
		t.Errorf("efficiency = %.5f fps/W", est.EfficiencyFPSPerW)
	}
	t.Logf("ResNet50@16b: %.0f MiB, %.3f fps, %.4f fps/W, compute %v, comm %v",
		est.CommMiB(), est.ThroughputFPS, est.EfficiencyFPSPerW, est.ComputeTime, est.CommTime)
}

func TestCompileAndSimulateConsistency(t *testing.T) {
	m := nn.Micro(nn.ZooConfig{Skeleton: true})
	r := ring.New(16)
	prog, err := Compile(ZCU104(), m, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Instrs) == 0 {
		t.Fatal("empty program")
	}
	if cycles, comm := ZCU104().Simulate(prog); cycles <= 0 || comm.Bytes == 0 || comm.Rounds == 0 {
		t.Errorf("simulated %d cycles, %d B, %d rounds", cycles, comm.Bytes, comm.Rounds)
	}
	// Every instruction maps to a real node, except the closing reveal.
	for k, in := range prog.Instrs {
		if k == len(prog.Instrs)-1 {
			if in.Op != OpExch || in.Node != -1 {
				t.Errorf("last instruction %+v, want the output reveal", in)
			}
			continue
		}
		if in.Node < 0 || in.Node >= len(m.Nodes) {
			t.Fatalf("instruction references node %d", in.Node)
		}
	}
	if prog.Dump(5) == "" {
		t.Error("empty dump")
	}
}

func TestCompileRejectsUnknownOp(t *testing.T) {
	m := &nn.Model{Name: "bad", InC: 1, InH: 1, InW: 1, InBits: 8,
		Nodes: []nn.Node{{Op: badOp{}, Inputs: []int{-1}}}}
	if _, err := Compile(ZCU104(), m, ring.New(16)); err == nil {
		t.Error("unknown op compiled")
	}
	m.Nodes = nil
	if _, err := Compile(ZCU104(), m, ring.New(16)); err == nil {
		t.Error("model without nodes compiled")
	}
}

type badOp struct{}

func (badOp) Kind() string { return "bad" }
func (badOp) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	return tensor.Shape{1}, nil
}

func BenchmarkEstimateResNet50(b *testing.B) {
	m, _ := nn.ByName("resnet50-imagenet", nn.ZooConfig{Skeleton: true})
	cfg := ZCU104()
	r := ring.New(16)
	for i := 0; i < b.N; i++ {
		cfg.EstimateModel(m, r)
	}
}

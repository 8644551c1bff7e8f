package experiments

import (
	"fmt"

	"aq2pnn/internal/baseline"
	"aq2pnn/internal/engine"
	"aq2pnn/internal/fpga"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/report"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/train"
)

// Ablations beyond the paper's tables: the design choices DESIGN.md calls
// out, each isolated and measured.

// AblationTrunc quantifies the reproduction's headline finding: the
// paper's local (zero-communication) share truncation versus the faithful
// SCM-based truncation, across carriers. Under local truncation the
// probabilistic ±Q/2^d wrap failures destroy accuracy at every aggressive
// width; the faithful mode restores the paper's plateau at the cost of
// BNReQ communication.
func (s *Suite) AblationTrunc() ([]*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: faithful vs local (paper-mode) truncation — LeNet5 stand-in accuracy (%)",
		Header: []string{"Carrier bits", "Faithful trunc", "Local trunc (paper)"},
	}
	tr, err := s.get("lenet5", "mnist", train.Max)
	if err != nil {
		return nil, err
	}
	for _, bits := range []uint{24, 16, 14} {
		faithful, err := s.accuracyAt(tr, bits, false)
		if err != nil {
			return nil, err
		}
		local, err := s.accuracyAt(tr, bits, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", bits), report.Pct(faithful), report.Pct(local))
	}
	t.AddNote("float baseline %s%%; local truncation wraps with probability ≈|v|/Q per element", report.Pct(tr.float))
	return []*report.Table{t}, nil
}

// AblationGC compares ABReLU's measured traffic against the
// garbled-circuit ReLU cost model (Sec. 2.2: 67.9K wires per ReLU) — the
// comparison motivating the paper's central algorithmic contribution.
func (s *Suite) AblationGC() ([]*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: ABReLU vs garbled-circuit ReLU traffic",
		Header: []string{"Model", "ReLU elems", "ABReLU 16-bit (MiB)", "GC ReLU (MiB)", "reduction"},
	}
	for _, name := range []string{"lenet5", "vgg16-cifar", "resnet18-imagenet"} {
		m, err := nn.ByName(name, nn.ZooConfig{Skeleton: true})
		if err != nil {
			return nil, err
		}
		relus, err := m.ReLUCount()
		if err != nil {
			return nil, err
		}
		est, err := fpga.ZCU104().EstimateModel(m, ring.New(16))
		if err != nil {
			return nil, err
		}
		var reluBytes uint64
		for _, op := range est.PerOp {
			if op.Kind == "ABReLU" {
				reluBytes += op.Bytes
			}
		}
		ab := float64(reluBytes) / (1 << 20)
		gc, err := baseline.GCReLUComm(m)
		if err != nil {
			return nil, err
		}
		gcMiB := float64(gc) / (1 << 20)
		t.AddRow(name, fmt.Sprintf("%d", relus), report.F(ab, 2), report.F(gcMiB, 1), report.X(gcMiB/ab))
	}
	t.AddNote("GC model: %d wires/ReLU × 32 B garbled-table bytes per wire", baseline.GCWiresPerReLU)
	return []*report.Table{t}, nil
}

// AblationArray sweeps the AS-GEMM array size — the accelerator's main
// design-space knob — showing the resource/throughput trade (and that
// communication, not compute, bounds large-model throughput, which is why
// the paper attacks bit-width rather than array size).
func (s *Suite) AblationArray() ([]*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: AS-GEMM array size (ResNet50-ImageNet @ 16-bit)",
		Header: []string{"Array", "DSP", "LUT", "Power(W)", "Compute(ms)", "Comm(ms)", "Tput(fps)"},
	}
	m, err := nn.ByName("resnet50-imagenet", nn.ZooConfig{Skeleton: true})
	if err != nil {
		return nil, err
	}
	r := ring.New(16)
	for _, blk := range []int{8, 16, 32} {
		cfg := fpga.ZCU104()
		cfg.BlockIn, cfg.BlockOut = blk, blk
		est, err := cfg.EstimateModel(m, r)
		if err != nil {
			return nil, err
		}
		res := cfg.Resources()
		t.AddRow(fmt.Sprintf("%d×%d", blk, blk),
			fmt.Sprintf("%d", res.DSP), fmt.Sprintf("%dk", res.LUT/1000),
			report.F(cfg.Power(), 1),
			report.F(ms(est.ComputeTime), 0), report.F(ms(est.CommTime), 0),
			report.F(est.ThroughputFPS, 3))
	}
	t.AddNote("communication dominates at every array size — the paper's motivation for adaptive bit-width")
	return []*report.Table{t}, nil
}

// AblationReLUBits measures the contracted-comparison ABReLU (the
// engine's ABReLUBits knob): online traffic of a real secure inference as
// the comparison width shrinks inside a fixed 24-bit carrier.
func (s *Suite) AblationReLUBits() ([]*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: ABReLU comparison width inside a 24-bit carrier (measured, LeNet5)",
		Header: []string{"ABReLU bits", "Online comm (MiB)", "ABReLU bytes/elem"},
	}
	m := nn.LeNet5(nn.ZooConfig{Seed: s.Cfg.Seed})
	relus, err := m.ReLUCount()
	if err != nil {
		return nil, err
	}
	x := make([]int64, 28*28)
	for i := range x {
		x[i] = int64(i%23) - 11
	}
	for _, bits := range []uint{0, 16, 12} {
		res, err := engine.RunLocal(m, x, engine.Options{CarrierBits: 24, Seed: s.Cfg.Seed, ABReLUBits: bits})
		if err != nil {
			return nil, err
		}
		var reluBytes uint64
		for _, op := range res.PerOp {
			if op.Kind == "ABReLU" {
				reluBytes += op.Bytes
			}
		}
		label := "24 (carrier)"
		if bits != 0 {
			label = fmt.Sprintf("%d", bits)
		}
		t.AddRow(label, report.F(res.Online.MiB(), 3),
			report.F(float64(reluBytes)/float64(relus), 1))
	}
	return []*report.Table{t}, nil
}

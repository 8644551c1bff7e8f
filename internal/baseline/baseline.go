// Package baseline provides the comparison systems of the paper's
// evaluation: the published platform rows of Table 4 (Falcon, CrypTFlow,
// CryptGPU — power and configuration exactly as the original papers
// report them), a runnable "previous works" configuration (the Fig. 9(b)
// flow: one fixed wide ring for the whole network, executed by the same
// engine so its communication is measured rather than assumed), and the
// garbled-circuit ReLU cost model used when discussing GC-based systems
// (Sec. 2.2: a ReLU costs 67.9K wires).
package baseline

import (
	"fmt"

	"aq2pnn/internal/fpga"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
)

// Platform describes a comparison system's deployment.
type Platform struct {
	Name string
	// PowerWatts is per node as reported by the original papers.
	PowerWatts float64
	// Nodes is the number of computation parties/machines.
	Nodes int
	// RingBits is the fixed share width the system computes on.
	RingBits uint
}

// The paper's comparison systems (Sec. 6.1).
var (
	// Falcon is the 3PC framework; power measured per its paper setup.
	Falcon = Platform{Name: "Falcon", PowerWatts: 133, Nodes: 3, RingBits: 32}
	// CrypTFlow runs the ABY2-based 2PC-DNN configuration.
	CrypTFlow = Platform{Name: "Cryptflow", PowerWatts: 178, Nodes: 2, RingBits: 64}
	// CryptGPU uses CUDALongTensor 64-bit shares on V100 GPUs.
	CryptGPU = Platform{Name: "CryptGPU", PowerWatts: 306, Nodes: 2, RingBits: 64}
)

// Row is one measurement: throughput, communication, power, efficiency —
// the four metrics of Table 4.
type Row struct {
	Model    string
	System   string
	TputFPS  float64
	CommMiB  float64
	PowerW   float64 // per node
	Nodes    int
	EffFPSpW float64
}

// Efficiency computes fps per total watt.
func (r *Row) Efficiency() float64 {
	if r.PowerW <= 0 || r.TputFPS <= 0 {
		return 0
	}
	return r.TputFPS / (r.PowerW * float64(r.Nodes))
}

// PublishedTable4 reproduces the comparison rows of Table 4 exactly as
// printed in the paper, for side-by-side presentation with our measured
// AQ2PNN rows.
func PublishedTable4() []Row {
	// EffFPSpW carries the paper's printed values (which embed its own
	// rounding); Efficiency() recomputes within ≈1% of them.
	return []Row{
		{Model: "LeNet5 (MNIST)", System: "Falcon", TputFPS: 26.316, CommMiB: 2.29, PowerW: 133, Nodes: 3, EffFPSpW: 0.065354},
		{Model: "AlexNet (MNIST/CIFAR10)", System: "Falcon", TputFPS: 9.091, CommMiB: 4.02, PowerW: 139, Nodes: 3, EffFPSpW: 0.021801},
		{Model: "VGG16 (CIFAR10)", System: "Falcon", TputFPS: 0.694, CommMiB: 40.45, PowerW: 185, Nodes: 3, EffFPSpW: 0.001250},
		{Model: "VGG16 (CIFAR10)", System: "CryptGPU", TputFPS: 0.467, CommMiB: 56.20, PowerW: 289, Nodes: 2, EffFPSpW: 0.000807},
		{Model: "ResNet50 (ImageNet)", System: "Cryptflow", TputFPS: 0.039, CommMiB: 6900, PowerW: 178, Nodes: 2, EffFPSpW: 0.000110},
		{Model: "ResNet50 (ImageNet)", System: "CryptGPU", TputFPS: 0.107, CommMiB: 3080, PowerW: 306, Nodes: 2, EffFPSpW: 0.000175},
		{Model: "VGG16 (ImageNet)", System: "CryptGPU", TputFPS: 0.106, CommMiB: 2750, PowerW: 315, Nodes: 2, EffFPSpW: 0.000168},
	}
}

// PublishedAQ2PNNTable4 is the paper's own AQ2PNN (16-bit) rows, kept for
// shape comparison against our reproduction.
func PublishedAQ2PNNTable4() []Row {
	return []Row{
		{Model: "LeNet5 (MNIST)", System: "AQ2PNN", TputFPS: 16.68, CommMiB: 0.95, PowerW: 7.2, Nodes: 2, EffFPSpW: 1.158333},
		{Model: "AlexNet (MNIST/CIFAR10)", System: "AQ2PNN", TputFPS: 6.081, CommMiB: 1.2, PowerW: 7.4, Nodes: 2, EffFPSpW: 0.410878},
		{Model: "VGG16 (CIFAR10)", System: "AQ2PNN", TputFPS: 0.352, CommMiB: 28.87, PowerW: 7.7, Nodes: 2, EffFPSpW: 0.022857},
		{Model: "ResNet50 (ImageNet)", System: "AQ2PNN", TputFPS: 0.071, CommMiB: 1120, PowerW: 7.7, Nodes: 2, EffFPSpW: 0.004610},
		{Model: "VGG16 (ImageNet)", System: "AQ2PNN", TputFPS: 0.038, CommMiB: 1410, PowerW: 7.7, Nodes: 2, EffFPSpW: 0.002468},
	}
}

// FixedRing estimates the "previous works" configuration of Fig. 9(b): the
// same accelerator and protocols but a single fixed wide ring (32- or
// 64-bit) and no adaptive requantization shaping. RingBits above
// ring.MaxBits are clamped to 62, which has the same 8-byte wire width as
// 64-bit shares.
func FixedRing(cfg fpga.Config, m *nn.Model, bits uint) (fpga.Estimate, error) {
	if bits > ring.MaxBits {
		bits = ring.MaxBits
	}
	return cfg.EstimateModel(m, ring.New(bits))
}

// GC ReLU cost (Sec. 2.2): "ReLU requires 67.9K wires". With half-gates
// garbling at 2 ciphertexts × 16 bytes per AND gate and roughly one gate
// per wire, one garbled ReLU moves about 2.2 MiB — the overhead that
// motivates ABReLU.

// GCWiresPerReLU is the paper's quoted circuit size.
const GCWiresPerReLU = 67_900

// GCBytesPerReLU models the garbled-table traffic of one ReLU.
const GCBytesPerReLU = GCWiresPerReLU * 32

// GCReLUComm returns the modelled garbled-circuit traffic for all ReLU
// activations of a model — the quantity ABReLU replaces.
func GCReLUComm(m *nn.Model) (uint64, error) {
	n, err := m.ReLUCount()
	if err != nil {
		return 0, err
	}
	return uint64(n) * GCBytesPerReLU, nil
}

// CommReduction reports ours vs theirs as the paper phrases it
// ("reduced communication by 2.41×").
func CommReduction(ours, theirs float64) (float64, error) {
	if ours <= 0 {
		return 0, fmt.Errorf("baseline: non-positive communication %f", ours)
	}
	return theirs / ours, nil
}

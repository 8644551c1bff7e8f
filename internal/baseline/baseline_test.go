package baseline

import (
	"testing"

	"aq2pnn/internal/fpga"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
)

func TestPublishedRowsEfficiency(t *testing.T) {
	for _, r := range PublishedTable4() {
		if r.EffFPSpW <= 0 {
			t.Errorf("%s/%s efficiency not computed", r.System, r.Model)
		}
	}
	// Spot-check against the paper: Falcon LeNet5 efficiency 0.065354.
	got := PublishedTable4()[0].EffFPSpW
	if got < 0.0653 || got > 0.0654 {
		t.Errorf("Falcon LeNet5 efficiency = %f, want 0.065354", got)
	}
	// CryptGPU ResNet50 efficiency 0.000175.
	for _, r := range PublishedTable4() {
		if r.System == "CryptGPU" && r.Model == "ResNet50 (ImageNet)" {
			if r.EffFPSpW < 0.000174 || r.EffFPSpW > 0.000176 {
				t.Errorf("CryptGPU ResNet50 efficiency = %f", r.EffFPSpW)
			}
		}
	}
}

func TestAQ2PNNPublishedEfficiencyGap(t *testing.T) {
	// The headline claim: 26.3× efficiency over CryptGPU on ResNet50.
	var aq, gpu float64
	for _, r := range PublishedAQ2PNNTable4() {
		if r.Model == "ResNet50 (ImageNet)" {
			aq = r.EffFPSpW
		}
	}
	for _, r := range PublishedTable4() {
		if r.System == "CryptGPU" && r.Model == "ResNet50 (ImageNet)" {
			gpu = r.EffFPSpW
		}
	}
	ratio := aq / gpu
	if ratio < 24 || ratio > 29 {
		t.Errorf("published efficiency ratio = %.1f×, paper says 26.3×", ratio)
	}
}

func TestFixedRingCostsMoreThanAdaptive(t *testing.T) {
	m, err := nn.ByName("resnet18-imagenet", nn.ZooConfig{Skeleton: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fpga.ZCU104()
	fixed64, err := FixedRing(cfg, m, 64)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := cfg.EstimateModel(m, ring.New(16))
	if err != nil {
		t.Fatal(err)
	}
	red, err := CommReduction(adaptive.CommMiB(), fixed64.CommMiB())
	if err != nil {
		t.Fatal(err)
	}
	// 64-bit shares cost ≈4× the bytes of 16-bit shares.
	if red < 3.0 || red > 5.0 {
		t.Errorf("fixed-64 vs adaptive-16 comm reduction = %.2f×, want ≈4×", red)
	}
	if fixed64.ThroughputFPS >= adaptive.ThroughputFPS {
		t.Error("fixed ring should be slower")
	}
}

func TestGCReLUCommDwarfsABReLU(t *testing.T) {
	m, _ := nn.ByName("resnet18-imagenet", nn.ZooConfig{Skeleton: true})
	gc, err := GCReLUComm(m)
	if err != nil {
		t.Fatal(err)
	}
	est, err := fpga.ZCU104().EstimateModel(m, ring.New(16))
	if err != nil {
		t.Fatal(err)
	}
	var ab uint64
	for _, op := range est.PerOp {
		if op.Kind == "ABReLU" {
			ab += op.Bytes
		}
	}
	if gc < 100*ab {
		t.Errorf("GC ReLU %d bytes vs ABReLU %d bytes; expected ≥100× gap", gc, ab)
	}
}

func TestCommReductionValidation(t *testing.T) {
	if _, err := CommReduction(0, 100); err == nil {
		t.Error("zero denominator accepted")
	}
	if r, _ := CommReduction(50, 100); r != 2 {
		t.Errorf("reduction = %f", r)
	}
}

func TestFixedRingClampsWidth(t *testing.T) {
	m := &nn.Model{Name: "t", InC: 1, InH: 4, InW: 4, InBits: 8,
		Nodes: []nn.Node{{Op: nn.Flatten{}, Inputs: []int{-1}}}}
	est, err := FixedRing(fpga.ZCU104(), m, 64)
	if err != nil {
		t.Fatal(err)
	}
	if est.Carrier.Bits != 62 {
		t.Errorf("carrier = %d, want clamp to 62", est.Carrier.Bits)
	}
	if est.Carrier.Bytes() != 8 {
		t.Error("62-bit carrier must have the 8-byte wire width of 64-bit shares")
	}
}

package aq2pnn

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

func TestPublicPipelineEndToEnd(t *testing.T) {
	// Dataset → train → quantize → secure inference, all through the
	// public API.
	ds, err := SyntheticDataset("mnist", 320, 7)
	if err != nil {
		t.Fatal(err)
	}
	standin, floatAcc, err := TrainStandin("lenet5", ds, 240, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if floatAcc < 0.4 {
		t.Fatalf("float accuracy %.2f", floatAcc)
	}
	q, err := Quantize(standin, QuantOptions{Calib: ds.X[:60], CarrierBits: 20})
	if err != nil {
		t.Fatal(err)
	}
	_, te := ds.Split(240)
	res, err := SecureInfer(q.Model, q.QuantizeInput(te.X[0]), InferenceConfig{Options: Options{CarrierBits: 20, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Logits) != 10 || res.Class < 0 || res.Class > 9 {
		t.Fatalf("result %+v", res)
	}
	if res.Online.TotalBytes() == 0 || len(res.PerOp) == 0 {
		t.Error("missing measurements")
	}
	if res.Carrier.Bits != 20 {
		t.Errorf("carrier = %d", res.Carrier.Bits)
	}
}

func TestBuildAndEstimate(t *testing.T) {
	m, err := BuildModel("resnet18-imagenet", ZooConfig{Skeleton: true})
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateModel(ZCU104(), m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if est.ThroughputFPS <= 0 || est.CommMiB() <= 0 || est.EfficiencyFPSPerW <= 0 {
		t.Errorf("estimate %+v", est)
	}
	// Default carrier = InBits + 4.
	est2, err := EstimateModel(ZCU104(), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est2.Carrier.Bits != 12 {
		t.Errorf("default carrier = %d, want 12", est2.Carrier.Bits)
	}
}

func TestRunExperimentFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table3", true, 1, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
	if err := RunExperiment("nope", true, 1, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(ExperimentNames()) != 15 {
		t.Errorf("experiment list = %v", ExperimentNames())
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := SyntheticDataset("nope", 10, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	ds, _ := SyntheticDataset("mnist", 10, 1)
	if _, _, err := TrainStandin("lenet5", ds, 10, 1, 1); err == nil {
		t.Error("trainN consuming all data accepted")
	}
	if _, err := BuildModel("nope", ZooConfig{}); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestCarrierOutOfRangeIsAnError: a carrier wider than the ring supports
// fails every entry point that resolves one with an error, not a panic.
func TestCarrierOutOfRangeIsAnError(t *testing.T) {
	m, err := BuildModel("micro", ZooConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const bits = 63
	cfg := InferenceConfig{Options: Options{CarrierBits: bits, Seed: 1}}
	x := make([]int64, m.InputShape().Numel())
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"SecureInfer", func() error { _, err := SecureInfer(m, x, cfg); return err }},
		{"SecureInferBatch", func() error { _, err := SecureInferBatch(m, [][]int64{x}, cfg); return err }},
		// The carrier is resolved before any dial, so no provider is needed.
		{"OpenSession", func() error { _, err := Dial("127.0.0.1:0", cfg).OpenSession(context.Background(), m); return err }},
		{"EstimateModel", func() error { _, err := EstimateModel(ZCU104(), m, bits); return err }},
		{"CompileProgram", func() error { _, err := CompileProgram(m, bits); return err }},
	} {
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
					t.Errorf("%s: %v", tc.name, err)
				}
			}()
			return tc.run()
		}()
		if err == nil {
			t.Errorf("%s accepted a %d-bit carrier", tc.name, bits)
		}
	}
}

package aq2pnn

// One benchmark per table and figure of the paper's evaluation section
// (plus protocol micro-benchmarks). Each BenchmarkTableN/BenchmarkFigN
// regenerates the corresponding experiment through the same code path as
// cmd/experiments; the shared quick suite trains its stand-ins once, so
// repeated iterations measure the evaluation itself.

import (
	"io"
	"sync"
	"testing"

	"aq2pnn/internal/experiments"
	"aq2pnn/internal/fpga"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/scm"
)

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

func suite() *experiments.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Config{Quick: true, Seed: 1})
	})
	return benchSuite
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	s := suite()
	for i := 0; i < b.N; i++ {
		if err := s.Run(name, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_QuantizedAccuracy(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3_Resources(b *testing.B)         { benchExperiment(b, "table3") }
func BenchmarkTable4_SOTAComparison(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkTable5_Operators(b *testing.B)         { benchExperiment(b, "table5") }
func BenchmarkTable6_Pooling(b *testing.B)           { benchExperiment(b, "table6") }
func BenchmarkTable7_ResNet18Sweep(b *testing.B)     { benchExperiment(b, "table7") }
func BenchmarkTable8_VGG16Sweep(b *testing.B)        { benchExperiment(b, "table8") }
func BenchmarkFig7_QuadrantCensus(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig10_CIFARSweep(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11_ImageNetSweep(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkScalability_Sec64(b *testing.B)        { benchExperiment(b, "scalability") }
func BenchmarkAblation_Truncation(b *testing.B)      { benchExperiment(b, "ablation-trunc") }
func BenchmarkAblation_GCReLU(b *testing.B)          { benchExperiment(b, "ablation-gc") }
func BenchmarkAblation_ArrayDSE(b *testing.B)        { benchExperiment(b, "ablation-array") }
func BenchmarkAblation_ReLUBits(b *testing.B)        { benchExperiment(b, "ablation-relu-bits") }

// BenchmarkSecureInference_LeNet5 runs the full two-party protocol per
// iteration — the end-to-end number behind the Table 4 LeNet5 row.
func BenchmarkSecureInference_LeNet5(b *testing.B) {
	m, err := BuildModel("lenet5", ZooConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]int64, 28*28)
	for i := range x {
		x[i] = int64(i%23) - 11
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SecureInfer(m, x, InferenceConfig{Options: Options{CarrierBits: 16, Seed: uint64(i)}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkASGEMM_Fig2 measures the ciphertext-ciphertext GEMM micro-op
// of Fig. 2/Alg. 1 at the AS-GEMM array's native tile shape, over a
// prepared layer: the E-only exchange inference runs.
func BenchmarkASGEMM_Fig2(b *testing.B) {
	benchSecureOp(b, func(r *secureRunner) error { return r.gemm() })
}

// BenchmarkABReLU_Sec44 measures the ABReLU operator of Sec. 4.4.
func BenchmarkABReLU_Sec44(b *testing.B) {
	benchSecureOp(b, func(r *secureRunner) error { return r.relu() })
}

// BenchmarkOTFlow_Fig4 measures the base OT-flow of Fig. 4 (the offline
// phase primitive).
func BenchmarkOTFlow_Fig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := runOTFlowOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModel_ResNet50 prices a full ResNet50 secure inference via
// the accelerator model (the Table 4 large-model row machinery).
func BenchmarkCostModel_ResNet50(b *testing.B) {
	m, err := nn.ByName("resnet50-imagenet", nn.ZooConfig{Skeleton: true})
	if err != nil {
		b.Fatal(err)
	}
	cfg := fpga.ZCU104()
	r := ring.New(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.EstimateModel(m, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuadrantCensus_Fig7 runs the exhaustive 8-bit census behind
// Fig. 7.
func BenchmarkQuadrantCensus_Fig7(b *testing.B) {
	r := ring.New(8)
	for i := 0; i < b.N; i++ {
		scm.Census(r)
	}
}

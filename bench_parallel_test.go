package aq2pnn

// Throughput benchmarks for the multi-core execution engine: batched
// secure inference at different Workers settings. On a multi-core host
// the pipelined lanes overlap one image's OT rounds with another's GEMMs;
// on a single CPU the settings coincide (results are bit-identical at
// every setting either way). The benchmark's lenet5_local_batch workload
// (bench/README.md) measures the same path.

import (
	"fmt"
	"testing"

	"aq2pnn/internal/nn"
)

func benchBatch(b *testing.B, model string, batch int, workers uint) {
	b.Helper()
	m, err := nn.ByName(model, nn.ZooConfig{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	n := m.InputShape().Numel()
	xs := make([][]int64, batch)
	for i := range xs {
		x := make([]int64, n)
		for j := range x {
			x[j] = int64((j*7+i)%23) - 11
		}
		xs[i] = x
	}
	cfg := InferenceConfig{ComputeConfig: ComputeConfig{CarrierBits: 16, Seed: 3, Workers: workers}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SecureInferBatch(m, xs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.OnlinePerImage.TotalBytes()), "B/image")
		}
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "images/s")
}

func BenchmarkSecureInferBatch_Micro_Workers1(b *testing.B) { benchBatch(b, "micro", 8, 1) }
func BenchmarkSecureInferBatch_Micro_Workers4(b *testing.B) { benchBatch(b, "micro", 8, 4) }

func BenchmarkSecureInferBatch_LeNet5(b *testing.B) {
	for _, w := range []uint{1, 2, 4} {
		b.Run(fmt.Sprintf("Workers%d", w), func(b *testing.B) {
			benchBatch(b, "lenet5", 8, w)
		})
	}
}

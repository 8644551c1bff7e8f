// Quickstart: the smallest possible AQ2PNN program. Build a quantized
// LeNet5, run one two-party secure inference in-process, and print the
// revealed logits with the measured communication — the whole protocol
// (AS-GEMM convolutions, 2PC-BNReQ, ABReLU, 2PC pooling) runs for real,
// with both parties' shares exchanged over an instrumented channel.
//
// Pass -trace out.json to also record a per-layer span trace and write
// it as Chrome trace-event JSON (see docs/observability.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"aq2pnn"
)

func main() {
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the inference")
	flag.Parse()

	// A zoo model with synthetic 8-bit weights (real deployments quantize
	// a trained model; see examples/lenet_mnist for that pipeline).
	model, err := aq2pnn.BuildModel("lenet5", aq2pnn.ZooConfig{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// The user's (quantized) input image.
	x := make([]int64, 28*28)
	for i := range x {
		x[i] = int64(i%23) - 11
	}

	// One secure inference on a 16-bit carrier ring — the paper's
	// headline configuration.
	cfg := aq2pnn.InferenceConfig{Options: aq2pnn.Options{CarrierBits: 16, Seed: 1}}
	if *tracePath != "" {
		cfg.Trace = aq2pnn.NewTracer()
	}
	res, err := aq2pnn.SecureInfer(model, x, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := aq2pnn.WriteChromeTrace(f, cfg.Trace); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(cfg.Trace.Spans()), *tracePath)
		fmt.Print(aq2pnn.TraceTable(cfg.Trace))
	}

	fmt.Printf("predicted class: %d\n", res.Class)
	fmt.Printf("logits:          %v\n", res.Logits)
	fmt.Printf("online traffic:  %.3f MiB over %d protocol rounds\n",
		res.Online.MiB(), res.Online.Rounds)

	// What would this cost on the paper's two-ZCU104 deployment?
	est, err := aq2pnn.EstimateModel(aq2pnn.ZCU104(), model, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ZCU104 estimate: %.2f fps at %.1f W per board (%.4f fps/W)\n",
		est.ThroughputFPS, est.PowerWatts, est.EfficiencyFPSPerW)
}

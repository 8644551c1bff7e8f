package aq2pnn_test

import (
	"fmt"

	"aq2pnn"
)

// The examples below are compiled and executed by `go test`; their output
// comments are asserted, so the documented behaviour can never drift from
// the implementation.

// ExampleSecureInfer runs one complete two-party secure inference of a
// small model and reports the measured traffic.
func ExampleSecureInfer() {
	model, err := aq2pnn.BuildModel("micro", aq2pnn.ZooConfig{Seed: 1})
	if err != nil {
		panic(err)
	}
	x := make([]int64, 8*8)
	for i := range x {
		x[i] = int64(i % 7)
	}
	res, err := aq2pnn.SecureInfer(model, x, aq2pnn.InferenceConfig{Options: aq2pnn.Options{CarrierBits: 16, Seed: 2}})
	if err != nil {
		panic(err)
	}
	fmt.Println("logits:", len(res.Logits))
	fmt.Println("traffic measured:", res.Online.TotalBytes() > 0)
	// Output:
	// logits: 5
	// traffic measured: true
}

// ExampleEstimateModel prices a full-size architecture on the two-board
// platform.
func ExampleEstimateModel() {
	m, err := aq2pnn.BuildModel("resnet50-imagenet", aq2pnn.ZooConfig{Skeleton: true})
	if err != nil {
		panic(err)
	}
	est, err := aq2pnn.EstimateModel(aq2pnn.ZCU104(), m, 16)
	if err != nil {
		panic(err)
	}
	// The coalesced bit-packed token transfer lands below the paper's
	// reported band (its tokens ride whole bytes).
	fmt.Println("comm under the paper's band:", est.CommMiB() > 300 && est.CommMiB() < 1000)
	fmt.Println("two boards at <10 W each:", est.PowerWatts < 10)
	// Output:
	// comm under the paper's band: true
	// two boards at <10 W each: true
}

// ExampleCompileProgram shows the INST Q stream a model lowers into.
func ExampleCompileProgram() {
	m, _ := aq2pnn.BuildModel("micro", aq2pnn.ZooConfig{Seed: 1})
	prog, err := aq2pnn.CompileProgram(m, 16)
	if err != nil {
		panic(err)
	}
	fmt.Println("instructions compiled:", len(prog.Instrs) > 5)
	// Output:
	// instructions compiled: true
}

// ExampleSecureInfer_classOnly reveals only the predicted class via the
// secure argmax tournament.
func ExampleSecureInfer_classOnly() {
	model, _ := aq2pnn.BuildModel("micro", aq2pnn.ZooConfig{Seed: 1})
	x := make([]int64, 8*8)
	res, err := aq2pnn.SecureInfer(model, x, aq2pnn.InferenceConfig{
		Options: aq2pnn.Options{CarrierBits: 16, Seed: 3, RevealClassOnly: true},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("logits hidden:", res.Logits == nil)
	fmt.Println("class in range:", res.Class >= 0 && res.Class < 5)
	// Output:
	// logits hidden: true
	// class in range: true
}

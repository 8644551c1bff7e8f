// Accelerator trace: compile a model into the INST Q instruction stream
// (the queue the paper's Sec. 4.1.1 describes TVM-style compilers
// producing) and inspect how LOAD / EXCH / GEMM / ALU / A2B / SCM
// instructions realize each building block, together with the cycle and
// traffic totals the cost model derives from them. The second half runs
// the same model through a real traced secure inference, so the modelled
// per-layer traffic can be read next to the measured span trace.
package main

import (
	"fmt"
	"log"

	"aq2pnn"
)

func main() {
	m, err := aq2pnn.BuildModel("lenet5", aq2pnn.ZooConfig{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, bits := range []uint{32, 16} {
		prog, err := aq2pnn.CompileProgram(m, bits)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("---- carrier %d bits ----\n", bits)
		fmt.Print(prog.Dump(28))
		est, err := aq2pnn.EstimateModel(aq2pnn.ZCU104(), m, bits)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("totals: %d cycles (%v compute) + %.3f MiB over %d rounds (%v comm) → %.2f fps\n\n",
			est.Cycles, est.ComputeTime, est.CommMiB(), est.Comm.Rounds, est.CommTime, est.ThroughputFPS)
	}
	fmt.Println("halving the carrier width nearly halves every EXCH payload — the root of the paper's communication savings")

	// Measured counterpart: trace one real 16-bit secure inference and
	// print the per-layer wall time and traffic attribution (every byte of
	// the session lands in exactly one layer or reveal span).
	x := make([]int64, 28*28)
	for i := range x {
		x[i] = int64(i%23) - 11
	}
	tr := aq2pnn.NewTracer()
	res, err := aq2pnn.SecureInfer(m, x, aq2pnn.InferenceConfig{Options: aq2pnn.Options{CarrierBits: 16, Seed: 3, Trace: tr}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n---- measured spans, carrier 16 bits ----\n")
	fmt.Print(aq2pnn.TraceTable(tr))
	fmt.Printf("session online total: %.3f MiB over %d rounds\n", res.Online.MiB(), res.Online.Rounds)
}

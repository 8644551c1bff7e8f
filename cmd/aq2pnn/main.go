// Command aq2pnn runs a complete in-process two-party secure inference of
// a zoo model and prints the revealed logits, the measured communication
// and the modelled deployment cost on the two-ZCU104 platform.
//
// Usage:
//
//	aq2pnn -model lenet5 -bits 16 [-local-trunc] [-seed 7] [-profile]
package main

import (
	"flag"
	"fmt"
	"os"

	"aq2pnn"
)

func main() {
	model := flag.String("model", "lenet5", "zoo model: lenet5 | alexnet | vgg16-cifar | resnet18-cifar")
	bits := flag.Uint("bits", 16, "carrier ring bit-width (0 = model bits + 4)")
	seed := flag.Uint64("seed", 7, "protocol randomness seed")
	localTrunc := flag.Bool("local-trunc", false, "use the paper's zero-communication local truncation")
	profile := flag.Bool("profile", false, "print the per-operator communication profile")
	classOnly := flag.Bool("class-only", false, "reveal only the predicted class (secure argmax)")
	reluBits := flag.Uint("relu-bits", 0, "contracted ABReLU comparison width (0 = carrier)")
	save := flag.String("save", "", "save the model artifact to this path and exit")
	load := flag.String("load", "", "load a model artifact instead of building from the zoo")
	summary := flag.Bool("summary", false, "print the per-layer model summary and exit")
	flag.Parse()

	if err := run(options{
		model: *model, bits: *bits, seed: *seed,
		localTrunc: *localTrunc, profile: *profile, classOnly: *classOnly,
		reluBits: *reluBits, save: *save, load: *load, summary: *summary,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "aq2pnn:", err)
		os.Exit(1)
	}
}

type options struct {
	model               string
	bits, reluBits      uint
	seed                uint64
	localTrunc, profile bool
	classOnly, summary  bool
	save, load          string
}

func run(o options) error {
	model, bits, seed, localTrunc, profile := o.model, o.bits, o.seed, o.localTrunc, o.profile
	var m *aq2pnn.Model
	var err error
	if o.load != "" {
		m, _, err = aq2pnn.LoadModel(o.load)
	} else {
		m, err = aq2pnn.BuildModel(model, aq2pnn.ZooConfig{Seed: seed})
	}
	if err != nil {
		return err
	}
	if o.summary {
		s, err := m.Summary()
		if err != nil {
			return err
		}
		fmt.Print(s)
		return nil
	}
	if o.save != "" {
		if err := aq2pnn.SaveModel(o.save, m, 0); err != nil {
			return err
		}
		fmt.Printf("saved %s to %s\n", m.Name, o.save)
		return nil
	}
	// A deterministic synthetic input: real deployments quantize the
	// user's image; the protocol is identical either way.
	n := m.InputShape().Numel()
	x := make([]int64, n)
	for i := range x {
		x[i] = int64((i*13)%23) - 11
	}
	fmt.Printf("running secure inference: %s on %d inputs, carrier %d bits\n", m.Name, n, bits)
	res, err := aq2pnn.SecureInfer(m, x, aq2pnn.InferenceConfig{
		Options: aq2pnn.Options{
			CarrierBits: bits, Seed: seed, LocalTrunc: localTrunc,
			ABReLUBits: o.reluBits, RevealClassOnly: o.classOnly,
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("class: %d\n", res.Class)
	if !o.classOnly {
		fmt.Printf("logits: %v\n", head(res.Logits, 10))
	}
	fmt.Printf("setup comm:  %.3f MiB (%d rounds)\n", res.Setup.MiB(), res.Setup.Rounds)
	fmt.Printf("online comm: %.3f MiB (%d rounds)\n", res.Online.MiB(), res.Online.Rounds)
	if profile {
		fmt.Println("\nper-operator online communication:")
		for _, op := range res.PerOp {
			fmt.Printf("  %-18s %-12s %8d B  %3d rounds  %v\n", op.Name, op.Kind, op.Bytes, op.Rounds, op.HostTime)
		}
	}
	est, err := aq2pnn.EstimateModel(aq2pnn.ZCU104(), m, bits)
	if err != nil {
		return err
	}
	fmt.Printf("\nZCU104 deployment estimate @ %d-bit:\n", bits)
	fmt.Printf("  throughput: %.3f fps  comm: %.2f MiB  power: %.1f W × 2  efficiency: %.5f fps/W\n",
		est.ThroughputFPS, est.CommMiB(), est.PowerWatts, est.EfficiencyFPSPerW)
	return nil
}

func head(v []int64, n int) []int64 {
	if len(v) <= n {
		return v
	}
	return v[:n]
}

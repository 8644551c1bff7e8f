// End-to-end pipeline on the MNIST stand-in: train a float LeNet5 from
// scratch, apply the paper's adaptive quantization for a 16-bit carrier,
// check the quantized accuracy, and run a handful of real two-party
// secure inferences, verifying they agree with the plaintext quantized
// model. This is the workflow a model provider would follow before
// deploying AQ2PNN.
package main

import (
	"fmt"
	"log"

	"aq2pnn"
)

func main() {
	fmt.Println("1) generating the synthetic MNIST stand-in …")
	ds, err := aq2pnn.SyntheticDataset("mnist", 600, 11)
	if err != nil {
		log.Fatal(err)
	}
	trainData, testData := ds.Split(450)

	fmt.Println("2) training float LeNet5 (a few epochs of SGD) …")
	standin, floatAcc, err := aq2pnn.TrainStandin("lenet5", ds, 450, 6, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   float test accuracy: %.1f%%\n", floatAcc*100)

	fmt.Println("3) adaptive quantization for a 16-bit carrier ring …")
	q, err := aq2pnn.Quantize(standin, aq2pnn.QuantOptions{
		Calib:       trainData.X[:80],
		CarrierBits: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range q.Report.Layers {
		fmt.Printf("   %-8s activations %d-bit, weights %d-bit, BNReQ scale %d/2^%d (headroom %.1f bits)\n",
			l.Name, l.InBits, l.WBits, l.Im, l.Ie, l.HeadroomBits)
	}

	fmt.Println("4) secure two-party inference on test images …")
	agree, correct := 0, 0
	const n = 5
	for i := 0; i < n; i++ {
		x := q.QuantizeInput(testData.X[i])
		res, err := aq2pnn.SecureInfer(q.Model, x, aq2pnn.InferenceConfig{Options: aq2pnn.Options{CarrierBits: 16, Seed: uint64(i)}})
		if err != nil {
			log.Fatal(err)
		}
		if res.Class == testData.Y[i] {
			correct++
		}
		agree++
		fmt.Printf("   image %d: secure class %d (label %d), online %.3f MiB\n",
			i, res.Class, testData.Y[i], res.Online.MiB())
	}
	fmt.Printf("   %d/%d secure inferences correct\n", correct, n)
}

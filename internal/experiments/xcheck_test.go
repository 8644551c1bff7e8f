package experiments

import (
	"testing"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/fpga"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/report"
	"aq2pnn/internal/ring"
)

// TestMeasuredLeNetCommCrossCheck holds Table 4's LeNet5 row to a real
// end-to-end 2PC LeNet5 inference at 16 bits: the weightless zoo graph the
// table prices costs exactly the measured online bytes and rounds, and the
// row prints the measured MiB.
func TestMeasuredLeNetCommCrossCheck(t *testing.T) {
	s := NewSuite(Config{Quick: true, Seed: 1})
	m := nn.LeNet5(nn.ZooConfig{Seed: s.Cfg.Seed})
	x := make([]int64, 28*28)
	for i := range x {
		x[i] = int64(i%23) - 11
	}
	res, err := engine.RunLocal(m, x, engine.Options{CarrierBits: 16, Seed: s.Cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	skel, err := nn.ByName("lenet5", nn.ZooConfig{Skeleton: true})
	if err != nil {
		t.Fatal(err)
	}
	est, err := fpga.ZCU104().EstimateModel(skel, ring.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if est.Comm.Bytes != res.Online.TotalBytes() || est.Comm.Rounds != res.Online.Rounds {
		t.Errorf("LeNet5@16b: modelled %d B / %d rounds, measured %d B / %d rounds",
			est.Comm.Bytes, est.Comm.Rounds, res.Online.TotalBytes(), res.Online.Rounds)
	}
	tables, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	want := report.F(res.Online.MiB(), 2)
	found := false
	for _, row := range tables[0].Rows {
		if row[0] == "LeNet5 (MNIST)" && row[1] == "AQ2PNN(ours,16-bit)" {
			found = true
			if row[3] != want {
				t.Errorf("Table 4 LeNet5 comm %s MiB, measured %s MiB", row[3], want)
			}
		}
	}
	if !found {
		t.Error("Table 4 has no AQ2PNN LeNet5 row")
	}
}

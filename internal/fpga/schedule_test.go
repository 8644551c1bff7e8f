package fpga

import (
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
)

func TestBuffersFromBRAM(t *testing.T) {
	b := ZCU104().Buffers()
	if b.Total() <= 0 {
		t.Fatal("no buffer capacity")
	}
	// 310 BRAM36 × 4 KiB ≈ 1.27 MB; the split must not exceed it.
	total := int(ZCU104().Resources().BRAM) * 4096
	if b.Total() > total {
		t.Errorf("buffer split %d exceeds BRAM budget %d", b.Total(), total)
	}
	if b.ASInp == 0 || b.ASWgt == 0 || b.ASOup == 0 || b.BSInOut == 0 {
		t.Error("a Fig. 1 buffer has zero capacity")
	}
}

func TestTileGEMMCoversAndFits(t *testing.T) {
	b := Buffers{ASInp: 1000, ASWgt: 800, ASOup: 600, ASCst: 100, BSInOut: 100, OutMsk: 50}
	m, k, n, eb := 137, 25, 43, 2
	tiles, err := tileGEMM(b, m, k, n, eb)
	if err != nil {
		t.Fatal(err)
	}
	// Tiles cover exactly M×N, each within the buffers.
	var covered int
	for _, tl := range tiles {
		covered += tl.m * tl.n
		if tl.m*k*eb > b.ASInp {
			t.Fatalf("tile input %d exceeds AS-INP", tl.m*k*eb)
		}
		if k*tl.n*eb > b.ASWgt {
			t.Fatalf("tile weight %d exceeds AS-WGT", k*tl.n*eb)
		}
		if tl.m*tl.n*eb > b.ASOup {
			t.Fatalf("tile output %d exceeds AS-OUP", tl.m*tl.n*eb)
		}
	}
	if covered != m*n {
		t.Errorf("tiles cover %d of %d output elements", covered, m*n)
	}
}

func TestTileGEMMRejectsImpossible(t *testing.T) {
	b := Buffers{ASInp: 10, ASWgt: 10, ASOup: 10}
	if _, err := tileGEMM(b, 4, 100, 4, 2); err == nil {
		t.Error("K row larger than AS-INP accepted")
	}
}

func TestCompiledProgramsFitBuffers(t *testing.T) {
	// Every zoo model's compiled program must pass the buffer check —
	// including the ImageNet-scale graphs whose layers far exceed on-chip
	// capacity and therefore must be tiled.
	cfg := ZCU104()
	for _, name := range []string{"lenet5", "alexnet", "vgg16-cifar", "resnet50-imagenet"} {
		m, err := nn.ByName(name, nn.ZooConfig{Skeleton: true})
		if err != nil {
			t.Fatal(err)
		}
		r := ring.New(16)
		prog, err := Compile(cfg, m, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.CheckProgram(prog, r); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTilingPreservesCommAndMACs(t *testing.T) {
	// Splitting GEMMs must not change the total exchanged bytes nor the
	// total multiply count.
	cfg := ZCU104()
	m, _ := nn.ByName("vgg16-cifar", nn.ZooConfig{Skeleton: true})
	r := ring.New(16)
	prog, err := Compile(cfg, m, r)
	if err != nil {
		t.Fatal(err)
	}
	var macs int64
	for _, in := range prog.Instrs {
		if in.Op == OpGemm {
			macs += int64(in.M) * int64(in.K) * int64(in.N)
		}
	}
	if macs != m.MACs() {
		t.Errorf("tiled MACs %d vs model %d", macs, m.MACs())
	}
	// Buffers large enough to hold every layer whole compile one tile per
	// GEMM; the traffic must be the same.
	whole := cfg
	whole.BlockIn, whole.BlockOut = 1024, 1024
	untiled, err := Compile(whole, m, r)
	if err != nil {
		t.Fatal(err)
	}
	_, tiledComm := cfg.Simulate(prog)
	_, wholeComm := whole.Simulate(untiled)
	if tiledComm != wholeComm {
		t.Errorf("tiled exchange %+v vs untiled %+v", tiledComm, wholeComm)
	}
}

func TestScheduleAnalysis(t *testing.T) {
	cfg := ZCU104()
	m := nn.Micro(nn.ZooConfig{Skeleton: true})
	r := ring.New(16)
	prog, err := Compile(cfg, m, r)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Analyze(prog)
	var sum int64
	for _, cy := range s.PerEngine {
		sum += cy
	}
	if sum != s.Sequential {
		t.Errorf("engine sums %d vs sequential %d", sum, s.Sequential)
	}
	if s.Pipelined > s.Sequential || s.Pipelined <= 0 {
		t.Errorf("pipelined %d vs sequential %d", s.Pipelined, s.Sequential)
	}
	seq, _ := cfg.Simulate(prog)
	if seq != s.Sequential {
		t.Errorf("Simulate %d vs Analyze sequential %d", seq, s.Sequential)
	}
	if EngineOf(OpGemm) != EngComp || EngineOf(OpExch) != EngNIC || EngineOf(OpLoad) != EngLoad || EngineOf(OpSCM) != EngComm {
		t.Error("engine assignment wrong")
	}
}

func TestCheckProgramDetectsOversizedTile(t *testing.T) {
	cfg := ZCU104()
	p := &Program{Model: "bad", Instrs: []Instr{{Op: OpGemm, M: 1 << 20, K: 512, N: 512}}}
	if err := cfg.CheckProgram(p, ring.New(16)); err == nil {
		t.Error("oversized GEMM tile accepted")
	}
}

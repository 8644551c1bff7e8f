package fpga

import (
	"fmt"

	"aq2pnn/internal/ring"
)

// On-chip buffer model and schedule analysis. Fig. 1 names the
// accelerator's buffers (AS-INP, AS-WGT, the mask and constant buffers,
// AS-OUP, BS-INP/BS-OUP, OUT-MSK); their capacities bound how much of a
// layer can be resident, forcing the compiler to tile large GEMMs, and the
// engine assignment of each instruction determines how much LOAD traffic,
// computation and NIC exchange can overlap.

// Buffers holds the byte capacity of each on-chip buffer.
type Buffers struct {
	ASInp   int // secret input shares (and E masks, same footprint)
	ASWgt   int // weight shares + pre-deployed F
	ASCst   int // Beaver triple constants (Z)
	ASOup   int // computing output shares
	BSInOut int // binary-share buffers of the Sec-COMM. module
	OutMsk  int // comparison result masks
}

// Total returns the summed capacity.
func (b Buffers) Total() int {
	return b.ASInp + b.ASWgt + b.ASCst + b.ASOup + b.BSInOut + b.OutMsk
}

// Buffers derives capacities from the configuration's BRAM budget: a
// BRAM36 holds 4 KiB; the split mirrors the Fig. 1 buffer roles (inputs
// and weights dominate, with smaller share-conversion and mask stores).
func (c Config) Buffers() Buffers {
	totalBytes := int(c.Resources().BRAM) * 4096
	return Buffers{
		ASInp:   totalBytes * 30 / 100,
		ASWgt:   totalBytes * 30 / 100,
		ASCst:   totalBytes * 10 / 100,
		ASOup:   totalBytes * 15 / 100,
		BSInOut: totalBytes * 10 / 100,
		OutMsk:  totalBytes * 5 / 100,
	}
}

// Engine identifies which hardware engine executes an instruction; the
// pipelined schedule bounds total latency by the busiest engine.
type Engine int

// Engine assignments.
const (
	EngLoad Engine = iota // LOAD/STORE ↔ DRAM
	EngComp               // Sec-COMP: AS-GEMM + AS-ALU
	EngComm               // Sec-COMM: A2BM + SCM
	EngNIC                // network interface
	engCount
)

var engineNames = [engCount]string{"LOAD/STORE", "Sec-COMP", "Sec-COMM", "NIC"}

// String implements fmt.Stringer.
func (e Engine) String() string { return engineNames[e] }

// EngineOf maps an opcode to its engine.
func EngineOf(op OpCode) Engine {
	switch op {
	case OpLoad, OpStore:
		return EngLoad
	case OpGemm, OpAlu:
		return EngComp
	case OpA2B, OpSCM:
		return EngComm
	case OpExch:
		return EngNIC
	default:
		return EngComp
	}
}

// Schedule summarizes a program's engine occupancy.
type Schedule struct {
	// PerEngine holds the summed cycles per engine (NIC counts the
	// exchange-issue cycles only; wire time is the network model's job).
	PerEngine [engCount]int64
	// Sequential is the no-overlap total (what Simulate reports).
	Sequential int64
	// Pipelined is the lower bound with perfect double buffering: the
	// busiest engine.
	Pipelined int64
}

// Analyze computes the schedule of a compiled program.
func (c Config) Analyze(p *Program) Schedule {
	var s Schedule
	for _, in := range p.Instrs {
		cy := c.Cycles(in)
		s.PerEngine[EngineOf(in.Op)] += cy
		s.Sequential += cy
	}
	for _, cy := range s.PerEngine {
		if cy > s.Pipelined {
			s.Pipelined = cy
		}
	}
	return s
}

// CheckProgram validates that every instruction's working set fits the
// configuration's buffers. Compile tiles GEMMs to guarantee this; the
// check guards against configurations whose buffers cannot hold even a
// single tile.
func (c Config) CheckProgram(p *Program, r ring.Ring) error {
	b := c.Buffers()
	eb := r.Bytes()
	for idx, in := range p.Instrs {
		switch in.Op {
		case OpGemm:
			if in.M*in.K*eb > b.ASInp {
				return fmt.Errorf("fpga: instr %d GEMM input tile %d B exceeds AS-INP %d B", idx, in.M*in.K*eb, b.ASInp)
			}
			if in.K*in.N*eb > b.ASWgt {
				return fmt.Errorf("fpga: instr %d GEMM weight tile %d B exceeds AS-WGT %d B", idx, in.K*in.N*eb, b.ASWgt)
			}
			if in.M*in.N*eb > b.ASOup {
				return fmt.Errorf("fpga: instr %d GEMM output tile %d B exceeds AS-OUP %d B", idx, in.M*in.N*eb, b.ASOup)
			}
		case OpA2B, OpSCM:
			// Sec-COMM streams elements through the binary-share buffers
			// in chunks; only a zero-capacity buffer is fatal.
			if b.BSInOut <= 0 {
				return fmt.Errorf("fpga: instr %d needs binary-share buffers", idx)
			}
		}
	}
	return nil
}

// gemmTile is one (rows × cols) block of a tiled multiplication.
type gemmTile struct {
	m, n int
}

// tileGEMM splits an (M×K)·(K×N) multiplication into tiles whose input,
// weight and output working sets fit the buffers. K is never split (the
// AS-GEMM array accumulates along it); M and N are.
func tileGEMM(b Buffers, m, k, n, eb int) ([]gemmTile, error) {
	maxM := b.ASInp / (k * eb)
	if maxM < 1 {
		return nil, fmt.Errorf("fpga: AS-INP cannot hold one GEMM row of K=%d", k)
	}
	maxN := b.ASWgt / (k * eb)
	if maxN < 1 {
		return nil, fmt.Errorf("fpga: AS-WGT cannot hold one GEMM column of K=%d", k)
	}
	// Clamp to the actual problem before balancing against the output
	// buffer, or small layers would be shredded into needlessly tiny tiles.
	maxM = min(maxM, m)
	maxN = min(maxN, n)
	if cap := b.ASOup / eb; maxM*maxN > cap && cap > 0 {
		// Shrink the M tile until the output block fits too.
		for maxM > 1 && maxM*maxN > cap {
			maxM--
		}
	}
	var tiles []gemmTile
	for m0 := 0; m0 < m; m0 += maxM {
		tm := min(maxM, m-m0)
		for n0 := 0; n0 < n; n0 += maxN {
			tiles = append(tiles, gemmTile{m: tm, n: min(maxN, n-n0)})
		}
	}
	return tiles, nil
}

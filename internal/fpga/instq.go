package fpga

import (
	"fmt"
	"sort"
	"strings"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/tensor"
)

// The INST Q instruction stream (Sec. 4.1.1): the compiler lowers a model
// into the accelerator's operation sequence — the same role TVM-generated
// queues play for VTA. The simulator executes the stream against the cycle
// model; examples/accelerator_trace prints it for inspection.

// OpCode enumerates the accelerator instructions.
type OpCode int

// Instruction opcodes.
const (
	OpLoad  OpCode = iota // LOAD module: DRAM → buffer
	OpGemm                // Sec-COMP: AS-GEMM tile
	OpAlu                 // Sec-COMP: AS-ALU pass (add/shift/scale/clip)
	OpA2B                 // Sec-COMM: arithmetic-to-binary conversion
	OpSCM                 // Sec-COMM: secure comparison machine pass
	OpExch                // NIC: share exchange with the peer
	OpStore               // STORE module: buffer → DRAM
)

var opNames = map[OpCode]string{
	OpLoad: "LOAD", OpGemm: "GEMM", OpAlu: "ALU", OpA2B: "A2B",
	OpSCM: "SCM", OpExch: "EXCH", OpStore: "STORE",
}

// String implements fmt.Stringer.
func (o OpCode) String() string { return opNames[o] }

// Instr is one INST Q entry.
type Instr struct {
	Op OpCode
	// M, K, N describe a GEMM tile; Elems counts ALU/A2B/SCM elements;
	// Bytes sizes LOAD/STORE/EXCH transfers (an EXCH counts both
	// directions at party i's endpoint).
	M, K, N int
	Elems   int
	Bytes   int
	// Rounds counts an EXCH's network round trips: the turns from sending
	// to receiving at party i's endpoint.
	Rounds int
	// Node is the model node this instruction implements; -1 marks the
	// reveal of the output shares, which follows the last node.
	Node int
}

// Program is a compiled instruction stream.
type Program struct {
	Model  string
	Instrs []Instr
}

// Compile lowers a model into the accelerator instruction stream for the
// given configuration: the protocol the engine runs, operator by
// operator, followed by the reveal of the output shares. Every GEMM is
// tiled so its working set fits the on-chip buffers (Fig. 1) — one
// LOAD+GEMM pair per tile, double-buffered by the schedule analysis — and
// every network exchange is one EXCH carrying its bytes and rounds.
func Compile(cfg Config, m *nn.Model, r ring.Ring) (*Program, error) {
	shapes, err := m.Shapes()
	if err != nil {
		return nil, err
	}
	if len(shapes) == 0 {
		return nil, fmt.Errorf("fpga: model %q has no nodes", m.Name)
	}
	bufs := cfg.Buffers()
	p := &Program{Model: m.Name}
	rb := r.Bytes()
	emit := func(i Instr, node int) {
		i.Node = node
		p.Instrs = append(p.Instrs, i)
	}
	// sent tracks whether party i's last frame was a send: a receive after
	// a send is one more round, whichever instruction it falls in.
	sent := false
	exch := func(frames []frame, node int) {
		in := Instr{Op: OpExch}
		for _, f := range frames {
			in.Bytes += f.bytes
			if sent && !f.send {
				in.Rounds++
			}
			sent = f.send
		}
		emit(in, node)
	}
	// secComm lowers one Sec-COMM step over elems values: the A2BM split
	// and SCM pass, the step's exchange and the ALU combine — the sign and
	// multiplexer of ABReLU, or the wrap-bit comparison and B2A of a
	// faithful truncation.
	secComm := func(frames []frame, elems, node int) {
		emit(Instr{Op: OpA2B, Elems: elems}, node)
		emit(Instr{Op: OpSCM, Elems: elems}, node)
		exch(frames, node)
		emit(Instr{Op: OpAlu, Elems: elems}, node)
	}
	truncate := func(elems, node int) { secComm(truncFrames(elems, r), elems, node) }
	abrelu := func(elems, node int) { secComm(abreluFrames(elems, r), elems, node) }
	// linear tiles an (M×K)·(K×N) multiplication across the buffers after
	// opening its masked input E, then rescales (BNReQ): bias + scale on
	// the ALU and a truncation by ie bits, free when ie is 0.
	linear := func(node, m_, k, n, outElems int, ie uint) error {
		exch(openFrames(m_*k, r), node)
		tiles, err := tileGEMM(bufs, m_, k, n, rb)
		if err != nil {
			return fmt.Errorf("fpga: node %d: %w", node, err)
		}
		for _, tl := range tiles {
			emit(Instr{Op: OpLoad, Bytes: tl.m * k * rb}, node)
			emit(Instr{Op: OpGemm, M: tl.m, K: k, N: tl.n}, node)
		}
		emit(Instr{Op: OpAlu, Elems: outElems}, node)
		if ie > 0 {
			truncate(outElems, node)
		}
		emit(Instr{Op: OpStore, Bytes: outElems * rb}, node)
		return nil
	}
	for i, node := range m.Nodes {
		outElems := shapes[i].Numel()
		switch op := node.Op.(type) {
		case *nn.Conv:
			g := op.Geom
			if err := linear(i, g.Patches(), g.PatchLen(), g.OutC, outElems, op.Ie); err != nil {
				return nil, err
			}
		case *nn.FC:
			if err := linear(i, 1, op.In, op.Out, op.Out, op.Ie); err != nil {
				return nil, err
			}
		case nn.ReLU:
			abrelu(outElems, i)
		case *nn.MaxPool:
			for _, pairs := range tournament(windowSizes(op.Geom)) {
				abrelu(pairs, i)
			}
		case *nn.AvgPool:
			emit(Instr{Op: OpAlu, Elems: op.Geom.InC * op.Geom.InH * op.Geom.InW}, i)
			// One division per window size (padding shortens the border
			// windows): a truncation for a power of two, free for one
			// element, and truncate·scale·truncate otherwise.
			sizes := windowSizes(op.Geom)
			for _, k := range sortedKeys(sizes) {
				n := sizes[k]
				switch {
				case k == 1:
				case k&(k-1) == 0:
					truncate(n, i)
				default:
					truncate(n, i)
					emit(Instr{Op: OpAlu, Elems: n}, i)
					truncate(n, i)
				}
			}
		case nn.Add:
			emit(Instr{Op: OpAlu, Elems: outElems}, i)
		case nn.Flatten:
			// Pure buffer reinterpretation: no instruction.
		default:
			return nil, fmt.Errorf("fpga: cannot compile op %T", node.Op)
		}
	}
	exch(revealFrames(shapes[len(shapes)-1].Numel(), r), -1)
	return p, nil
}

// windowSizes counts a pooling layer's windows by the number of inputs
// each covers; padding shortens the border windows.
func windowSizes(g tensor.ConvGeom) map[int]int {
	one := g
	one.InC = 1
	sizes := map[int]int{}
	tensor.PoolWindows(one, func(_ int, in []int) { sizes[len(in)] += g.InC })
	return sizes
}

// tournament lists the comparisons of each stage of the max-pooling
// tournament (secure.MaxPool): every stage pairs off each window's
// candidates, an unpaired last one advancing as is, so a K-element window
// takes ⌈log₂K⌉ stages and K−1 comparisons.
func tournament(sizes map[int]int) []int {
	var stages []int
	for {
		pairs, next := 0, map[int]int{}
		for k, n := range sizes {
			pairs += k / 2 * n
			next[(k+1)/2] += n
		}
		if pairs == 0 {
			return stages
		}
		stages = append(stages, pairs)
		sizes = next
	}
}

func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Cycles prices one instruction on the configuration.
func (c Config) Cycles(i Instr) int64 {
	const fill = 24
	switch i.Op {
	case OpGemm:
		return int64(i.M)*int64(i.K)*int64(i.N)/int64(c.BlockIn*c.BlockOut) + fill
	case OpAlu:
		return int64(i.Elems)/int64(c.ALULanes) + fill
	case OpA2B, OpSCM:
		return int64(i.Elems)/int64(c.SCMLanes) + fill
	case OpLoad, OpStore:
		return int64(i.Bytes)/int64(c.LoadBytesPerCycle) + fill
	case OpExch:
		return fill // wire time is priced by the network model
	default:
		return fill
	}
}

// Cost prices one instruction: its cycles and, for an EXCH, its bytes and
// rounds.
func (c Config) Cost(i Instr) OpCost {
	cost := OpCost{Cycles: c.Cycles(i)}
	if i.Op == OpExch {
		cost.Bytes, cost.Rounds = uint64(i.Bytes), uint64(i.Rounds)
	}
	return cost
}

// Simulate executes the program against the cycle model, returning total
// compute cycles and the exchanged traffic.
func (c Config) Simulate(p *Program) (cycles int64, comm CommProfile) {
	var total OpCost
	for _, i := range p.Instrs {
		total.Add(c.Cost(i))
	}
	return total.Cycles, CommProfile{Bytes: total.Bytes, Rounds: total.Rounds}
}

// Dump renders the program for humans (used by examples/accelerator_trace).
func (p *Program) Dump(limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INST Q for %s: %d instructions\n", p.Model, len(p.Instrs))
	for k, i := range p.Instrs {
		if limit > 0 && k >= limit {
			fmt.Fprintf(&b, "  ... %d more\n", len(p.Instrs)-k)
			break
		}
		switch i.Op {
		case OpGemm:
			fmt.Fprintf(&b, "  %3d %-5s node=%d M=%d K=%d N=%d\n", k, i.Op, i.Node, i.M, i.K, i.N)
		case OpAlu, OpA2B, OpSCM:
			fmt.Fprintf(&b, "  %3d %-5s node=%d elems=%d\n", k, i.Op, i.Node, i.Elems)
		case OpExch:
			fmt.Fprintf(&b, "  %3d %-5s node=%d bytes=%d rounds=%d\n", k, i.Op, i.Node, i.Bytes, i.Rounds)
		default:
			fmt.Fprintf(&b, "  %3d %-5s node=%d bytes=%d\n", k, i.Op, i.Node, i.Bytes)
		}
	}
	return b.String()
}

package fpga

import (
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

// Config describes one AQ2PNN accelerator instance (one party's board).
type Config struct {
	// ClockHz is the fabric clock (ZCU104: 200 MHz).
	ClockHz float64
	// BlockIn/BlockOut size the AS-GEMM array (Fig. 2a): BlockIn×BlockOut
	// C-C multiplication units at initiation interval 1.
	BlockIn, BlockOut int
	// ALULanes is the AS-ALU vector width (elements per cycle).
	ALULanes int
	// SCMLanes is the number of parallel A2BM/SCM element pipelines.
	SCMLanes int
	// LoadBytesPerCycle models the DRAM/buffer streaming bandwidth.
	LoadBytesPerCycle int
	// Network joins the two boards (the paper: 1000 Mbps LAN). The round
	// trip models the measured software round latency of the ARM-side
	// protocol stack rather than the raw wire RTT.
	Network transport.NetworkModel
	// HostBytesPerSec models the ARM-side protocol processing (OT pad
	// expansion, packing) that accompanies every transferred byte.
	HostBytesPerSec float64
	// StaticWatts and DynamicWattsPerDSP build the board power model.
	StaticWatts        float64
	DynamicWattsPerDSP float64
}

// ZCU104 is the paper's evaluation platform configuration. The derived
// resource numbers reproduce Table 3 and the power model lands on the
// measured 7.2–7.7 W.
func ZCU104() Config {
	return Config{
		ClockHz:            200e6,
		BlockIn:            16,
		BlockOut:           16,
		ALULanes:           16,
		SCMLanes:           8,
		LoadBytesPerCycle:  16,
		Network:            transport.NetworkModel{BandwidthBitsPerSec: 1e9, RoundTrip: time.Millisecond},
		HostBytesPerSec:    150e6,
		StaticWatts:        3.1,
		DynamicWattsPerDSP: 0.003,
	}
}

// Power returns the modelled per-board power draw under load.
func (c Config) Power() float64 {
	return c.StaticWatts + c.DynamicWattsPerDSP*float64(c.Resources().DSP)
}

// Resources models the FPGA footprint (Table 3). The dominant terms scale
// with the AS-GEMM array: each C-C multiplication unit (Fig. 2b) costs
// three multipliers (E⊗F, IN⊗F, E⊗W) at two DSP48 slices each, plus
// control LUT/FF; buffers land in BRAM.
type Resources struct {
	LUT, FF, DSP int
	BRAM         float64
}

// Resources derives the footprint from the configuration.
func (c Config) Resources() Resources {
	mus := c.BlockIn * c.BlockOut
	return Resources{
		DSP: mus * 6,
		// Per-MU datapath/control plus the Sec-COMM. module (A2BM + SCM
		// pipelines) plus LOAD/STORE/INST Q overhead.
		LUT: mus*320 + c.SCMLanes*3500 + 10_000,
		FF:  mus*560 + c.SCMLanes*7000 + 8_000,
		// Input/weight/mask/output/constant buffers (Fig. 1) plus the
		// binary-share buffers of the Sec-COMM. module.
		BRAM: float64(mus)/16*14 + float64(c.SCMLanes)*6 + 38,
	}
}

// VTAResources is the plaintext-DNN reference accelerator row of Table 3.
func VTAResources() Resources {
	return Resources{LUT: 24_200, FF: 26_800, DSP: 268, BRAM: 136.5}
}

// OpCost is one operator's modelled execution cost on the accelerator.
type OpCost struct {
	Name   string
	Kind   string
	Cycles int64
	Bytes  uint64
	Rounds uint64
}

// Add accumulates another cost's cycles, bytes and rounds.
func (o *OpCost) Add(x OpCost) {
	o.Cycles += x.Cycles
	o.Bytes += x.Bytes
	o.Rounds += x.Rounds
}

// Estimate is the end-to-end cost of one secure inference on a two-board
// deployment.
type Estimate struct {
	Model       string
	Carrier     ring.Ring
	Cycles      int64
	ComputeTime time.Duration
	Comm        CommProfile
	CommTime    time.Duration
	Total       time.Duration
	// ThroughputFPS is 1/Total for batch size 1.
	ThroughputFPS float64
	// PowerWatts is per board; the paper reports "W × 2".
	PowerWatts float64
	// EfficiencyFPSPerW uses the two-board total power, matching Table 4.
	EfficiencyFPSPerW float64
	// PerOp prices each node; the output reveal counts in Comm only.
	PerOp []OpCost
}

// CommMiB returns the modelled communication volume in MiB.
func (e Estimate) CommMiB() float64 { return float64(e.Comm.Bytes) / (1 << 20) }

// EstimateModel prices a full secure inference from its compiled INST Q
// program: accelerator cycles for the compute, and the EXCH instructions'
// bytes and rounds on the network model for the communication.
func (c Config) EstimateModel(m *nn.Model, r ring.Ring) (Estimate, error) {
	p, err := Compile(c, m, r)
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{Model: m.Name, Carrier: r, PerOp: make([]OpCost, len(m.Nodes))}
	for i, node := range m.Nodes {
		est.PerOp[i] = OpCost{Name: node.Name, Kind: node.Op.Kind()}
	}
	for _, in := range p.Instrs {
		if in.Node < 0 {
			continue // the output reveal belongs to no node
		}
		est.PerOp[in.Node].Add(c.Cost(in))
	}
	est.Cycles, est.Comm = c.Simulate(p)
	est.ComputeTime = time.Duration(float64(est.Cycles) / c.ClockHz * float64(time.Second))
	// Each direction of the duplex link carries half the summed traffic;
	// host-side protocol processing is paid on top of the wire time.
	est.CommTime = c.Network.Time(est.Comm.Bytes/2, est.Comm.Rounds) + c.hostTime(est.Comm.Bytes/2)
	est.Total = est.ComputeTime + est.CommTime
	if est.Total > 0 {
		est.ThroughputFPS = float64(time.Second) / float64(est.Total)
	}
	est.PowerWatts = c.Power()
	if est.ThroughputFPS > 0 {
		est.EfficiencyFPSPerW = est.ThroughputFPS / (2 * est.PowerWatts)
	}
	return est, nil
}

// OpTime converts one op's cost into wall time on this configuration.
func (c Config) OpTime(op OpCost) time.Duration {
	compute := time.Duration(float64(op.Cycles) / c.ClockHz * float64(time.Second))
	return compute + c.Network.Time(op.Bytes/2, op.Rounds) + c.hostTime(op.Bytes/2)
}

// hostTime prices the ARM-side protocol processing for a traffic volume.
func (c Config) hostTime(bytes uint64) time.Duration {
	if c.HostBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / c.HostBytesPerSec * float64(time.Second))
}

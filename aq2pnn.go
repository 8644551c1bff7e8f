// Package aq2pnn is a from-scratch Go implementation of AQ2PNN
// ("Enabling Two-party Privacy-Preserving Deep Neural Network Inference
// with Adaptive Quantization", MICRO 2023): two-party secure DNN inference
// over additive secret shares on adaptive power-of-two rings, with the
// paper's garbled-circuit-free ABReLU activation and an FPGA accelerator
// cost model that reproduces the evaluation tables.
//
// The facade exposes four workflows:
//
//   - Model building: the zoo of shape-accurate architectures the paper
//     evaluates (LeNet5 … ResNet50) and the train→quantize pipeline that
//     produces runnable quantized models with adaptive per-layer
//     bit-widths.
//   - Secure inference: SecureInfer runs a complete two-party protocol
//     (in-process parties over an instrumented channel) and reports the
//     logits together with measured per-operator communication.
//   - Cost estimation: Estimate prices a model on the two-ZCU104
//     deployment (throughput, communication, power, energy efficiency).
//   - Experiments: RunExperiment regenerates any table or figure of the
//     paper's evaluation section.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package aq2pnn

import (
	"context"
	"fmt"
	"io"

	"aq2pnn/internal/dataset"
	"aq2pnn/internal/engine"
	"aq2pnn/internal/experiments"
	"aq2pnn/internal/fpga"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/quant"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/train"
	"aq2pnn/internal/transport"
)

// Re-exported core types. The implementation lives under internal/; these
// aliases are the supported public names.
type (
	// Model is a quantized DNN graph executable in both the plaintext and
	// ciphertext domains.
	Model = nn.Model
	// ZooConfig parameterizes the model zoo builders.
	ZooConfig = nn.ZooConfig
	// Quantized couples a quantized model with its input scale and the
	// adaptive-quantization report.
	Quantized = quant.Quantized
	// QuantOptions configures the adaptive quantizer.
	QuantOptions = quant.Options
	// Dataset is a labelled synthetic image set.
	Dataset = dataset.Dataset
	// Standin is a trainable reduced model for accuracy experiments.
	Standin = train.Standin
	// Accelerator is the FPGA platform configuration.
	Accelerator = fpga.Config
	// Estimate is a modelled deployment cost (throughput/comm/power).
	Estimate = fpga.Estimate
	// CommStats are measured transport counters.
	CommStats = transport.Stats
	// Tracer records hierarchical spans with per-span communication deltas.
	Tracer = telemetry.Tracer
	// SpanRecord is one finished span of a Tracer.
	SpanRecord = telemetry.SpanRecord
	// MetricsRegistry holds process-wide counters and histograms.
	MetricsRegistry = telemetry.Registry
	// HandshakeError is a session-parameter disagreement detected by the
	// versioned handshake (protocol version, model fingerprint, carrier
	// width, protocol flags). It is permanent: fix the configuration.
	HandshakeError = engine.HandshakeError
	// PayloadError is a setup payload that disagrees with the public model
	// shapes (truncated weight share, stray node id). Also permanent.
	PayloadError = engine.PayloadError
)

// ErrSessionAborted wraps session errors caused by the server tearing a
// session down (shutdown past the drain grace, or a SessionTimeout
// expiry) rather than by the protocol failing on its own.
var ErrSessionAborted = engine.ErrSessionAborted

// IsTransient reports whether err looks like a transient networking
// failure worth retrying (connection refused/reset, peer closed, an
// injected test fault) as opposed to a permanent one (handshake or
// payload mismatch, context cancellation). SecureInferTCP applies the
// same classification internally when cfg.Retries > 0.
func IsTransient(err error) bool { return transport.IsTransient(err) }

// NewTracer returns a tracer ready to be passed as InferenceConfig.Trace.
// Every secure-inference entrypoint accepts one; a nil tracer keeps all
// instrumentation at zero cost.
func NewTracer() *Tracer { return telemetry.New() }

// WriteChromeTrace exports a finished trace as Chrome trace-event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev).
func WriteChromeTrace(w io.Writer, t *Tracer) error { return telemetry.WriteChromeTrace(w, t) }

// TraceTable renders a finished trace as an aligned per-layer text table
// (wall time, bytes sent/received and rounds per span).
func TraceTable(t *Tracer) string { return telemetry.LayerTable(t).String() }

// Metrics returns the process-wide registry served by the /metrics
// endpoint. Counter and histogram updates are recorded only after
// EnableMetrics (one atomic-load branch when disabled).
func Metrics() *MetricsRegistry { return telemetry.Default() }

// EnableMetrics turns on process-wide counter/histogram recording.
// ServeModelTCP calls it automatically when cfg.MetricsAddr is set.
func EnableMetrics() { telemetry.Enable() }

// Pooling selection for zoo builders and stand-ins.
const (
	PoolMax = nn.PoolMax
	PoolAvg = nn.PoolAvg
)

// BuildModel returns a zoo architecture by name: "lenet5", "alexnet",
// "alexnet-mnist", "vgg16-cifar", "vgg16-imagenet", "resnet18-cifar",
// "resnet18-imagenet" or "resnet50-imagenet". Set cfg.Skeleton for
// cost-model-only graphs (mandatory at ImageNet scale).
func BuildModel(name string, cfg ZooConfig) (*Model, error) {
	return nn.ByName(name, cfg)
}

// ZCU104 returns the paper's evaluation platform (two boards, 200 MHz,
// 1 Gbps LAN).
func ZCU104() Accelerator { return fpga.ZCU104() }

// InferenceResult reports a secure inference: the revealed logits and
// predicted class, party i's measured traffic per phase and per operator,
// and the carrier ring the inference ran on.
type InferenceResult = engine.Result

// SecureInfer runs a full two-party secure inference of the quantized
// model on the integer input: the model and input are secret-shared, both
// parties execute the AQ2PNN protocol over an instrumented in-process
// channel, and the logits are revealed to the user party.
func SecureInfer(m *Model, x []int64, cfg InferenceConfig) (*InferenceResult, error) {
	return engine.RunLocal(m, x, cfg.options())
}

// EstimateModel prices one secure inference of m at carrierBits (0 = the
// model bits + 4 default) on acc from its compiled INST Q program (see
// CompileProgram): the instructions' cycles for the compute, and the
// exchange instructions' bytes and rounds — equal to what the engine's
// protocol puts on the wire, the output reveal included — for the
// communication.
func EstimateModel(acc Accelerator, m *Model, carrierBits uint) (Estimate, error) {
	r, err := Options{CarrierBits: carrierBits}.Carrier(m)
	if err != nil {
		return Estimate{}, err
	}
	return acc.EstimateModel(m, r)
}

// TrainStandin trains a reduced stand-in ("lenet5", "alexnet", "vgg16",
// "resnet18", "resnet50") on a synthetic dataset and returns it with its
// float test accuracy.
func TrainStandin(arch string, ds *Dataset, trainN, epochs int, seed uint64) (*Standin, float64, error) {
	if trainN >= ds.Len() {
		return nil, 0, fmt.Errorf("aq2pnn: trainN %d must leave test samples of %d", trainN, ds.Len())
	}
	tr, te := ds.Split(trainN)
	rng := prg.NewSeeded(seed)
	s, err := train.StandinByName(arch, rng, train.Max, ds.C, ds.H, ds.Classes)
	if err != nil {
		return nil, 0, err
	}
	if err := s.Net.Fit(tr.X, tr.Y, rng, train.Config{Epochs: epochs, LR: 0.01}); err != nil {
		return nil, 0, err
	}
	return s, s.Net.Accuracy(te.X, te.Y), nil
}

// Quantize applies the adaptive quantization of Sec. 5 to a trained
// stand-in, shaping per-layer bit-widths and dyadic BNReQ scales to the
// target carrier.
func Quantize(s *Standin, opts QuantOptions) (*Quantized, error) {
	return quant.Quantize(s, opts)
}

// SyntheticDataset builds one of the stand-in corpora: "mnist", "cifar10"
// or "imagenet".
func SyntheticDataset(name string, n int, seed uint64) (*Dataset, error) {
	switch name {
	case "mnist":
		return dataset.MNISTLike(n, seed)
	case "cifar10":
		return dataset.CIFARLike(n, seed)
	case "imagenet":
		return dataset.ImageNetLike(n, seed)
	default:
		return nil, fmt.Errorf("aq2pnn: unknown dataset %q", name)
	}
}

// ExperimentNames lists the table/figure generators accepted by
// RunExperiment.
func ExperimentNames() []string {
	return append([]string(nil), experiments.Names...)
}

// RunExperiment regenerates one of the paper's tables or figures, writing
// the rendered tables to w. quick shrinks the training workloads for fast
// runs.
func RunExperiment(name string, quick bool, seed uint64, w io.Writer) error {
	return experiments.NewSuite(experiments.Config{Quick: quick, Seed: seed}).Run(name, w)
}

// NewExperimentSuite returns a suite that caches trained stand-ins across
// multiple RunExperiment-style calls (use Suite.Run).
func NewExperimentSuite(quick bool, seed uint64) *experiments.Suite {
	return experiments.NewSuite(experiments.Config{Quick: quick, Seed: seed})
}

// Program is a compiled INST Q instruction stream for the accelerator.
type Program = fpga.Program

// CompileProgram lowers a model into the accelerator's INST Q instruction
// stream at the given carrier width (Sec. 4.1.1; 0 = the model bits + 4
// default).
func CompileProgram(m *Model, carrierBits uint) (*Program, error) {
	r, err := Options{CarrierBits: carrierBits}.Carrier(m)
	if err != nil {
		return nil, err
	}
	return fpga.Compile(fpga.ZCU104(), m, r)
}

// ServeModelTCP runs the model-provider side of a two-process deployment:
// it listens on addr and serves every connecting user's session — setup
// once, then a stream of secure inferences — with simultaneous clients
// handled concurrently. It is ServeModelsTCP over a one-model registry.
// With cfg.ServeSessions > 0 it returns once that many sessions complete;
// otherwise it serves until ctx is cancelled (returning nil). Set
// cfg.DemoGroup for the small fast OT group in demonstrations (NOT
// cryptographically strong).
func ServeModelTCP(ctx context.Context, addr string, m *Model, cfg InferenceConfig) error {
	reg := NewModelRegistry()
	if err := reg.Add(m); err != nil {
		return err
	}
	return ServeModelsTCP(ctx, addr, reg, cfg)
}

// SecureInferTCP runs one secure inference against a provider at addr: a
// thin wrapper that opens a Session, infers once and closes. Programs
// making more than one inference should hold the Session open themselves
// (Dial → OpenSession → Infer…) — the per-inference setup cost this
// wrapper pays is exactly what the session API amortises away. The
// dial/agreement/retry semantics are Dial's; with cfg.Retries > 0 a
// transient mid-protocol failure re-establishes and replays the
// inference. Use IsTransient to classify a final error.
func SecureInferTCP(ctx context.Context, addr string, m *Model, x []int64, cfg InferenceConfig) (*InferenceResult, error) {
	s, err := Dial(addr, cfg).OpenSession(ctx, m)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.Infer(ctx, x)
	if err != nil {
		return nil, err
	}
	res.Setup = s.SetupStats()
	return res, nil
}

// SaveModel writes a quantized model artifact (graph, weights, BNReQ
// scales and the quantizer's input scale) to a file.
func SaveModel(path string, m *Model, inScale float64) error {
	return nn.Save(path, m, inScale)
}

// LoadModel reads a model artifact written by SaveModel.
func LoadModel(path string) (*Model, float64, error) {
	return nn.Load(path)
}

// BatchResult reports a batched secure inference (one setup, many images).
type BatchResult = engine.BatchResult

// SecureInferBatch runs secure inference over a batch of quantized inputs
// with a single weight-preparation phase, the deployment pattern behind
// the paper's 1,000-iteration throughput averages. Images are pipelined
// over cfg.Workers lanes with bit-identical results at every setting.
func SecureInferBatch(m *Model, xs [][]int64, cfg InferenceConfig) (*BatchResult, error) {
	return engine.RunLocalBatch(m, xs, cfg.options())
}

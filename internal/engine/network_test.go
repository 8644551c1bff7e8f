package engine

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

// inferOnce runs a session of one inference — open, infer, close — the
// user half of every single-inference test.
func inferOnce(ctx context.Context, dial Redial, m *nn.Model, x []int64, cfg Options) (*Result, error) {
	s, err := NewClient(dial, cfg).OpenSession(ctx, m)
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

// over adapts an established connection to the Redial a Client takes.
func over(conn transport.Conn) Redial {
	return func(context.Context) (transport.Conn, error) { return conn, nil }
}

// registryOf returns a registry serving just m.
func registryOf(t testing.TB, m *nn.Model) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestNetworkInferenceNoDealer(t *testing.T) {
	// Full dealer-free protocol: base-OT harvested correlations and
	// Gilboa triples over a (piped) wire, cross-checked against the
	// plaintext reference. Uses the fast test group.
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	cfg := Options{CarrierBits: 20, Seed: 4, Group: ot.TestGroup()}
	var res *Result
	var errU, errP error
	var wg sync.WaitGroup
	wg.Add(2)
	reg := registryOf(t, m)
	go func() { defer wg.Done(); res, errU = inferOnce(context.Background(), over(a), m, x, cfg) }()
	go func() { defer wg.Done(); errP = provideConn(b, reg, cfg) }()
	wg.Wait()
	if errU != nil || errP != nil {
		t.Fatal(errU, errP)
	}
	want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(20)})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Logits, want); d > 6 {
		t.Errorf("network logits %v vs plaintext %v", res.Logits, want)
	}
	if res.Setup.TotalBytes() == 0 || res.Online.TotalBytes() == 0 {
		t.Error("missing traffic measurements")
	}
	t.Logf("network inference: setup %.3f MiB, online %.3f MiB", res.Setup.MiB(), res.Online.MiB())
}

func TestNetworkInferenceOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP round trip")
	}
	m := tinyModel(nn.PoolMax)
	x := input(64)
	cfg := Options{CarrierBits: 18, Seed: 5, Group: ot.TestGroup()}
	reg := registryOf(t, m)
	done := make(chan error, 1)
	addrCh := make(chan string, 1)
	go func() {
		l, err := listenAny()
		if err != nil {
			done <- err
			return
		}
		addrCh <- l.addr
		conn, err := l.accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- provideConn(conn, reg, cfg)
	}()
	addr := <-addrCh
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := inferOnce(context.Background(), over(conn), m, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want, _ := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(18)})
	if d := maxAbsDiff(res.Logits, want); d > 6 {
		t.Errorf("TCP logits %v vs plaintext %v", res.Logits, want)
	}
}

// listener helper keeping net plumbing out of the test body.
type tcpListener struct {
	addr   string
	accept func() (transport.Conn, error)
}

func listenAny() (*tcpListener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &tcpListener{
		addr: l.Addr().String(),
		accept: func() (transport.Conn, error) {
			defer l.Close()
			c, err := l.Accept()
			if err != nil {
				return nil, err
			}
			return transport.NewNetConn(c), nil
		},
	}, nil
}

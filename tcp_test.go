package aq2pnn_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aq2pnn"
)

func microModel(t *testing.T) *aq2pnn.Model {
	t.Helper()
	m, err := aq2pnn.BuildModel("micro", aq2pnn.ZooConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServeModelTCPConcurrentClients exercises the concurrent-session
// server: four users dial the same provider simultaneously and each runs
// a complete dealer-free secure inference. Run under -race this also
// validates the transport counters and the shared worker pool.
func TestServeModelTCPConcurrentClients(t *testing.T) {
	const addr = "127.0.0.1:17549"
	const clients = 4
	cfg := aq2pnn.InferenceConfig{
		Options:       aq2pnn.Options{CarrierBits: 16, Seed: 9},
		DemoGroup:     true,
		DialTimeout:   20 * time.Second,
		ServeSessions: clients,
	}
	m := microModel(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	serveErr := make(chan error, 1)
	go func() { serveErr <- aq2pnn.ServeModelTCP(ctx, addr, m, cfg) }()

	x := make([]int64, 8*8)
	for i := range x {
		x[i] = int64(i%23) - 11
	}
	var wg sync.WaitGroup
	results := make([]*aq2pnn.InferenceResult, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = aq2pnn.SecureInferTCP(ctx, addr, m, x, cfg)
		}(c)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if results[c].Class != results[0].Class {
			t.Errorf("client %d class %d, want %d", c, results[c].Class, results[0].Class)
		}
		if results[c].Online.TotalBytes() == 0 {
			t.Errorf("client %d measured no online traffic", c)
		}
	}
}

// TestClientSessionTCP exercises the first-class session API end to end:
// a multi-model provider, a persistent session streaming inferences with
// byte-identical online cost, a one-shot client sharing the same serving
// loop, and a hot model removal failing fresh handshakes with the typed
// mismatch while the open session keeps working.
func TestClientSessionTCP(t *testing.T) {
	const addr = "127.0.0.1:17551"
	cfg := aq2pnn.InferenceConfig{
		Options:     aq2pnn.Options{CarrierBits: 16, Seed: 9},
		DemoGroup:   true,
		DialTimeout: 20 * time.Second,
	}
	mA := microModel(t)
	mB, err := aq2pnn.BuildModel("micro", aq2pnn.ZooConfig{Seed: 9, Pool: aq2pnn.PoolAvg})
	if err != nil {
		t.Fatal(err)
	}
	reg := aq2pnn.NewModelRegistry()
	if err := reg.Add(mA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(mB); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	serveCtx, stopServe := context.WithCancel(ctx)
	serveErr := make(chan error, 1)
	go func() { serveErr <- aq2pnn.ServeModelsTCP(serveCtx, addr, reg, cfg) }()

	x := make([]int64, 8*8)
	for i := range x {
		x[i] = int64(i%23) - 11
	}
	c := aq2pnn.Dial(addr, cfg)
	s, err := c.OpenSession(ctx, mA)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if s.SetupStats().TotalBytes() == 0 {
		t.Error("session open measured no setup traffic")
	}
	var online []aq2pnn.CommStats
	for i := 0; i < 3; i++ {
		res, err := s.Infer(ctx, x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		if res.Setup.TotalBytes() != 0 {
			t.Errorf("inference %d reported setup traffic; sessions pay setup once at open", i)
		}
		online = append(online, res.Online)
	}
	for i := 1; i < len(online); i++ {
		if online[i] != online[0] {
			t.Errorf("inference %d online %+v, want byte-identical to inference 0 %+v", i, online[i], online[0])
		}
	}
	// One-shot wrapper against the other registered model, same loop.
	if _, err := aq2pnn.SecureInferTCP(ctx, addr, mB, x, cfg); err != nil {
		t.Fatalf("one-shot inference for second model: %v", err)
	}
	// Hot-remove model B: fresh handshakes fail typed, the session lives.
	reg.Remove(mB)
	if _, err := c.OpenSession(ctx, mB); err == nil {
		t.Error("OpenSession succeeded for a removed model")
	} else {
		var he *aq2pnn.HandshakeError
		if !errors.As(err, &he) {
			t.Errorf("removed model returned %v, want a HandshakeError", err)
		}
	}
	if _, err := s.Infer(ctx, x); err != nil {
		t.Errorf("session inference after removing the other model: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	stopServe()
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestServeModelTCPCancel verifies that cancelling the server context
// unblocks a provider with no pending clients.
func TestServeModelTCPCancel(t *testing.T) {
	const addr = "127.0.0.1:17550"
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- aq2pnn.ServeModelTCP(ctx, addr, microModel(t), aq2pnn.InferenceConfig{Options: aq2pnn.Options{CarrierBits: 16, Seed: 9}})
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled server returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not return after cancellation")
	}
}

// ExampleSecureInferBatch demonstrates pipelined batched inference: one
// weight-preparation phase, images spread over worker lanes, results
// independent of the Workers setting.
func ExampleSecureInferBatch() {
	model, err := aq2pnn.BuildModel("micro", aq2pnn.ZooConfig{Seed: 1})
	if err != nil {
		panic(err)
	}
	xs := make([][]int64, 3)
	for i := range xs {
		x := make([]int64, 8*8)
		for j := range x {
			x[j] = int64((j + i) % 7)
		}
		xs[i] = x
	}
	serial, err := aq2pnn.SecureInferBatch(model, xs, aq2pnn.InferenceConfig{Options: aq2pnn.Options{CarrierBits: 16, Seed: 2, Workers: 1}})
	if err != nil {
		panic(err)
	}
	parallel, err := aq2pnn.SecureInferBatch(model, xs, aq2pnn.InferenceConfig{Options: aq2pnn.Options{CarrierBits: 16, Seed: 2, Workers: 4}})
	if err != nil {
		panic(err)
	}
	same := len(serial.Logits) == len(parallel.Logits)
	for i := range serial.Logits {
		for j := range serial.Logits[i] {
			same = same && serial.Logits[i][j] == parallel.Logits[i][j]
		}
	}
	fmt.Println("images:", len(parallel.Logits))
	fmt.Println("bit-identical across workers:", same)
	fmt.Println("identical traffic:", serial.Online == parallel.Online)
	// Output:
	// images: 3
	// bit-identical across workers: true
	// identical traffic: true
}

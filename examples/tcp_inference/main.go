// Two real processes over localhost TCP, emulating the paper's two-board
// deployment: this program re-executes itself as the model provider and
// two concurrent users, who each open one persistent session and stream
// several dealer-free secure inferences over it — κ base OTs through the
// Fig. 4 OT-flow on the production 512-bit group, IKNP OT extension for
// every correlation after that, and Gilboa Beaver triples, all on the
// wire. The session pays setup (weight shares, triple preparation) once;
// each further inference costs only its online traffic. The provider
// serves both sessions concurrently and exits once they complete. Run
// ./cmd/party for full models and role control.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"time"

	"aq2pnn"
)

const addr = "127.0.0.1:7542"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "provider":
			serve()
			return
		case "user":
			runUser(os.Args[2])
			return
		}
	}
	orchestrate()
}

func model() *aq2pnn.Model {
	// The "micro" building block keeps the demo to a few seconds; a full
	// LeNet5 takes ~30 s (the Gilboa triple offline phase dominates).
	m, err := aq2pnn.BuildModel("micro", aq2pnn.ZooConfig{Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func cfg() aq2pnn.InferenceConfig {
	return aq2pnn.InferenceConfig{
		Options: aq2pnn.Options{
			CarrierBits: 16,
			Seed:        9,
			// Fault tolerance (docs/robustness.md): after a transient
			// failure the Session re-dials and re-attaches to the
			// provider's cached state through its resumption token.
			// Handshake mismatches (wrong model/bits/seed) fail fast
			// instead of retrying.
			Retries:    2,
			RetryBase:  200 * time.Millisecond,
			DrainGrace: 10 * time.Second,
		},
	}
}

func serve() {
	fmt.Println("[provider] listening on", addr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := cfg()
	c.ServeSessions = 2
	if err := aq2pnn.ServeModelTCP(ctx, addr, model(), c); err != nil {
		log.Fatal("[provider] ", err)
	}
	fmt.Println("[provider] both sessions served")
}

func runUser(tag string) {
	const inferences = 3
	input := func(round int) []int64 {
		x := make([]int64, 8*8)
		for i := range x {
			x[i] = int64((i+round)%23) - 11
		}
		return x
	}
	fmt.Printf("[user %s] dialing %s\n", tag, addr)
	start := time.Now()
	c := cfg()
	c.DialTimeout = 30 * time.Second
	ctx := context.Background()
	s, err := aq2pnn.Dial(addr, c).OpenSession(ctx, model())
	if err != nil {
		log.Fatalf("[user %s] %v", tag, err)
	}
	defer s.Close()
	fmt.Printf("[user %s] session open in %v (setup %.3f MiB, paid once)\n",
		tag, time.Since(start), s.SetupStats().MiB())
	for i := 0; i < inferences; i++ {
		t0 := time.Now()
		res, err := s.Infer(ctx, input(i))
		if err != nil {
			log.Fatalf("[user %s] inference %d: %v", tag, i, err)
		}
		fmt.Printf("[user %s] inference %d: class %d in %v; online %.3f MiB over %d rounds\n",
			tag, i, res.Class, time.Since(t0), res.Online.MiB(), res.Online.Rounds)
	}
	fmt.Printf("[user %s] %d inferences in %v over one session\n", tag, inferences, time.Since(start))
}

func orchestrate() {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	provider := exec.Command(self, "provider")
	provider.Stdout, provider.Stderr = os.Stdout, os.Stderr
	if err := provider.Start(); err != nil {
		log.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the listener come up
	users := make([]*exec.Cmd, 2)
	for i := range users {
		u := exec.Command(self, "user", fmt.Sprint(i))
		u.Stdout, u.Stderr = os.Stdout, os.Stderr
		if err := u.Start(); err != nil {
			provider.Process.Kill()
			log.Fatal(err)
		}
		users[i] = u
	}
	for _, u := range users {
		if err := u.Wait(); err != nil {
			provider.Process.Kill()
			log.Fatal(err)
		}
	}
	if err := provider.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("two concurrent sessions complete")
}

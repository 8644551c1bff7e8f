package ot

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// planePair runs a plane set-up as a session stream does: a transfer in
// the direction in which party 1 sends (the set-up's public-key flow),
// then Plane on both endpoints (the reverse direction's bootstrap), then
// one more transfer each way on the set-up endpoints. It returns both
// endpoints and their planes.
func planePair(t *testing.T) ([2]*Endpoint, [2]*Plane) {
	t.Helper()
	a, b := transport.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	eps := [2]*Endpoint{NewEndpoint(0, a, prg.NewSeeded(301)), NewEndpoint(1, b, prg.NewSeeded(302))}
	for _, e := range eps {
		e.HarvestGroup = TestGroup()
	}
	g := prg.NewSeeded(303)
	transferPair(t, g, eps[1], eps[0], 40)
	var planes [2]*Plane
	both(t,
		func() (err error) { planes[0], err = eps[0].Plane(); return },
		func() (err error) { planes[1], err = eps[1].Plane(); return })
	transferPair(t, g, eps[0], eps[1], 40)
	transferPair(t, g, eps[1], eps[0], 40)
	return eps, planes
}

// transferPair runs count 1-of-4 OTs of 2-byte messages from snd to rcv
// and checks every received message; it returns the received bytes.
func transferPair(t *testing.T, g *prg.PRG, snd, rcv *Endpoint, count int) []byte {
	t.Helper()
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = [][]byte{{byte(k), 0}, {byte(k), 1}, {byte(k), 2}, {byte(k), 3}}
		choices[k] = g.Intn(4)
	}
	var got []byte
	both(t,
		func() error { return snd.Send1ofN(4, 2, flatten(msgs)) },
		func() (err error) { got, err = rcv.Recv1ofN(4, choices, 2); return })
	for k := range msgs {
		if !bytes.Equal(got[2*k:2*k+2], msgs[k][choices[k]]) {
			t.Fatalf("party %d → %d, instance %d: wrong message", snd.Party, rcv.Party, k)
		}
	}
	return got
}

// derivedPair derives both parties' endpoints for seq in half h over a
// fresh pipe, each with its own choice-bit stream, and wraps party 0's end
// in a digestConn.
func derivedPair(t *testing.T, planes [2]*Plane, seq uint32, h Half) ([2]*Endpoint, *digestConn) {
	t.Helper()
	a, b := transport.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	dc := &digestConn{Conn: a}
	rngSeed := uint64(seq)*4 + uint64(h)*2 + 401
	return [2]*Endpoint{
		planes[0].Derive(dc, prg.NewSeeded(rngSeed), seq, h),
		planes[1].Derive(b, prg.NewSeeded(rngSeed+1), seq, h),
	}, dc
}

// TestPlaneDerivation: endpoints derived from a plane for seqs 0, 1 and
// MaxUint32, in both halves, run no public-key set-up and no bootstrap;
// each direction's derived base views satisfy the OT relation, and so
// does what they extend; the plane's own endpoint and the six derived
// pairs share no column key (seed, counter, domain byte) and no row-hash
// tweak ⟨tag, counter⟩ in either direction; and replaying a seq from the
// same choice-bit stream is byte-identical on the wire and in what it
// delivers.
func TestPlaneDerivation(t *testing.T) {
	planeEPs, planes := planePair(t)
	seqs := []uint32{0, 1, math.MaxUint32}
	type user struct {
		name  string
		eps   [2]*Endpoint
		start uint64
	}
	users := []user{{"plane", planeEPs, 0}}
	g := prg.NewSeeded(304)
	for _, seq := range seqs {
		for _, h := range []Half{KitHalf, OnlineHalf} {
			eps, _ := derivedPair(t, planes, seq, h)
			transferPair(t, g, eps[0], eps[1], 300)
			transferPair(t, g, eps[1], eps[0], 300)
			// No base-domain call: no bootstrap ran. A derived endpoint
			// has no group, so no public-key flow could run.
			start := nsStart(seq, h)
			for p, e := range eps {
				if e.extS.counter[domBase] != start || e.extR.counter[domBase] != start {
					t.Errorf("seq %d half %d: party %d made base-domain calls", seq, h, p)
				}
			}
			for snd := range 2 {
				s, r := eps[snd].extS, eps[1-snd].extR
				checkBaseRelation(t, "derived base", r.pairs, s.delta, s.seeds)
				checkExtension(t, "derived extension", s, r, 200)
			}
			users = append(users, user{fmt.Sprintf("seq %d half %d", seq, h), eps, start})
		}
	}

	// Column keys and tweaks over every extend call: an endpoint's calls
	// in a domain are its counters from its namespace start up to now.
	// Direction snd is keyed by the receiver's seed pairs and tweaked
	// under the sender's Δ.
	type tweak struct {
		snd int
		tag byte
		ctr uint64
	}
	keys := map[[prg.SeedSize]byte]string{}
	tweaks := map[tweak]string{}
	for _, u := range users {
		for snd := range 2 {
			s, r := u.eps[snd].extS, u.eps[1-snd].extR
			if s.counter != r.counter {
				t.Fatalf("%s: direction %d counters %v and %v differ", u.name, snd, s.counter, r.counter)
			}
			for dom := range 2 {
				if c := s.counter[dom]; c < u.start || c-u.start >= 1<<nsBits {
					t.Fatalf("%s: counter %#x outside the namespace from %#x", u.name, c, u.start)
				}
				for c := u.start; c < s.counter[dom]; c++ {
					tw := tweak{snd, domTag[dom], c}
					if prev, ok := tweaks[tw]; ok {
						t.Fatalf("%s and %s share tweak %v", u.name, prev, tw)
					}
					tweaks[tw] = u.name
					for _, p := range r.pairs {
						for _, seed := range p {
							k := columnKey(seed, dom, c)
							if prev, ok := keys[k]; ok {
								t.Fatalf("%s and %s share a column key at counter %#x", u.name, prev, c)
							}
							keys[k] = u.name
						}
					}
				}
			}
		}
	}
	if len(tweaks) == 0 {
		t.Fatal("no extend call recorded")
	}

	// Replay: the same seq from the same streams repeats every frame and
	// every delivered message.
	var digests [2][2]frameDigest
	var got [2][]byte
	for run := range 2 {
		eps, dc := derivedPair(t, planes, 7, OnlineHalf)
		rg := prg.NewSeeded(305)
		got[run] = append(transferPair(t, rg, eps[0], eps[1], 300), transferPair(t, rg, eps[1], eps[0], 300)...)
		digests[run] = [2]frameDigest{dc.sent, dc.recv}
	}
	if digests[0] != digests[1] || !bytes.Equal(got[0], got[1]) {
		t.Errorf("replayed seq: transcripts %v and %v, deliveries equal %v", digests[0], digests[1], bytes.Equal(got[0], got[1]))
	}
}

// TestNamespaceBounds: a seq's KitHalf namespace starts where a seq's one
// namespace did, (seq+1)·2^31; seq MaxUint32's OnlineHalf starts past
// every other namespace with no wrap onto the plane's namespace 0, and
// its last counter fits 64 bits; and an endpoint in either half refuses
// the extend call that would run its counter into the next namespace —
// the KitHalf's into the same seq's OnlineHalf — before any traffic.
func TestNamespaceBounds(t *testing.T) {
	for _, seq := range []uint32{0, 1, 5, math.MaxUint32} {
		if got, want := nsStart(seq, KitHalf), (uint64(seq)+1)<<31; got != want {
			t.Errorf("seq %d: KitHalf starts at %#x, want %#x", seq, got, want)
		}
		if nsStart(seq, OnlineHalf) != nsStart(seq, KitHalf)+1<<nsBits {
			t.Errorf("seq %d: OnlineHalf does not follow KitHalf", seq)
		}
	}
	top := nsStart(math.MaxUint32, OnlineHalf)
	if nsStart(0, KitHalf) == 0 || top <= nsStart(math.MaxUint32, KitHalf) || top>>nsBits != 1<<33+1 {
		t.Fatalf("namespace starts %#x, %#x, %#x", nsStart(0, KitHalf), nsStart(math.MaxUint32, KitHalf), top)
	}
	if last := top + 1<<nsBits - 1; last < top {
		t.Fatal("the last namespace wraps")
	}
	_, planes := planePair(t)
	for _, h := range []Half{KitHalf, OnlineHalf} {
		eps, dc := derivedPair(t, planes, 5, h)
		for _, e := range eps {
			e.extS.counter[domStock] = nsStart(5, h) + 1<<nsBits - 2
			e.extR.counter[domStock] = nsStart(5, h) + 1<<nsBits - 2
		}
		si, ri := extendPair(t, eps[0].extS, eps[1].extR, 8)
		if len(si) != 16 || len(ri) != 8 {
			t.Fatalf("half %d: the namespace's last permitted call extended %d/%d", h, len(si), len(ri))
		}
		// A call the check let through would block on its absent peer.
		if checkCounter(eps[0].extS.counter[domStock]) == nil {
			t.Fatalf("half %d: the call past the namespace's last is not refused", h)
		}
		frames := dc.sent.frames + dc.recv.frames
		if _, err := eps[0].extS.Extend(8); err == nil {
			t.Errorf("half %d: sender extended past its namespace", h)
		}
		if _, err := eps[1].extR.Extend(8); err == nil {
			t.Errorf("half %d: receiver extended past its namespace", h)
		}
		if f := dc.sent.frames + dc.recv.frames; f != frames {
			t.Errorf("half %d: a refused extend moved %d frames", h, f-frames)
		}
		if c, next := eps[0].extS.counter[domStock], nsStart(5, h)+1<<nsBits; c >= next {
			t.Errorf("half %d: counter %#x reached the next namespace at %#x", h, c, next)
		}
	}
}

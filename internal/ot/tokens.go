package ot

import (
	"fmt"
	"slices"
	"sort"

	"aq2pnn/internal/telemetry"
)

// Coalesced token transfer: the round-bound online phase for comparison
// protocols. A tensor-wide SCM/A2BM comparison spans several OT arities
// (one per distinct group width), and running one derandomized batch per
// arity costs one round trip each. SendTokens/RecvTokens instead move the
// whole step in a single send/recv pair: the receiver packs every batch's
// derandomization shift into one bit stream, the sender answers with every
// batch's masked candidate tokens in another. Tokens are packed at their
// true width (2 bits for the {LT, EQ, GT} comparison alphabet) instead of
// one byte each, so coalescing also shrinks the token traffic 4×.
//
// Stock refills stay in lockstep because both endpoints derive the same
// refill schedule from their (symmetric) stock levels, in ascending-arity
// order; with IKNP extension the whole multi-arity refill shares a single
// Extend call, so even the refill costs one message per step.

// SendTokenBatch is the sender's view of one arity-homogeneous slice of a
// coalesced transfer: Rows[k] holds the N candidate token values of
// instance k, each value < 1<<bits.
type SendTokenBatch struct {
	N    int
	Rows [][]byte
}

// RecvTokenBatch is the receiver's counterpart: Choices[k] selects
// instance k's candidate.
type RecvTokenBatch struct {
	N       int
	Choices []int
}

// putBits writes the low w bits of v at bit position pos (LSB-first within
// each byte). w ≤ 8, so a value spans at most two bytes.
func putBits(dst []byte, pos uint64, v uint64, w uint) {
	v &= 1<<w - 1
	i, off := pos>>3, pos&7
	dst[i] |= byte(v << off)
	if off+uint64(w) > 8 {
		dst[i+1] |= byte(v >> (8 - off))
	}
}

// getBits reads w bits at bit position pos.
func getBits(src []byte, pos uint64, w uint) uint64 {
	i, off := pos>>3, pos&7
	v := uint64(src[i]) >> off
	if off+uint64(w) > 8 {
		v |= uint64(src[i+1]) << (8 - off)
	}
	return v & (1<<w - 1)
}

// bitLen is the byte length of a bit stream.
func bitLen(bits uint64) int { return int((bits + 7) / 8) }

// tokenPlan is the shared arithmetic of one coalesced transfer: per-batch
// arity widths and the two stream lengths. Both parties compute it
// identically, so stream lengths never need negotiating.
type tokenPlan struct {
	widths []uint // per batch, log2 of its arity
	dsBits uint64 // total derandomization-shift bits
	ctBits uint64 // total masked-candidate bits
	use    map[int]int
}

func planTokens(bits uint, counts func(i int) (n, insts int), batches int) (tokenPlan, error) {
	p := tokenPlan{widths: make([]uint, batches), use: map[int]int{}}
	if bits == 0 || bits > 8 {
		return p, fmt.Errorf("ot: token width %d bits outside [1,8]", bits)
	}
	for i := 0; i < batches; i++ {
		n, insts := counts(i)
		t, err := log2Arity(n)
		if err != nil {
			return p, err
		}
		p.widths[i] = uint(t)
		p.dsBits += uint64(insts) * uint64(t)
		p.ctBits += uint64(insts) * uint64(n) * uint64(bits)
		p.use[n] += insts
	}
	return p, nil
}

// needs derives the refill demand from current stock levels.
func (p tokenPlan) needs(stock func(n int) int) map[int]int {
	needs := map[int]int{}
	for n, u := range p.use {
		if s := stock(n); u > s {
			needs[n] = u - s
		}
	}
	return needs
}

// SendTokens runs the sender side of one coalesced token transfer. Every
// batch rides the same ds-recv / cts-send pair, so the call costs one
// round regardless of how many arities the comparison layout spans.
func (e *Endpoint) SendTokens(bits uint, batches []SendTokenBatch) error {
	total := 0
	for _, b := range batches {
		total += len(b.Rows)
	}
	if total == 0 {
		return nil
	}
	sp := e.Trace.Enter("ot.send.tokens", telemetry.WithAttrs(
		telemetry.Int("batches", int64(len(batches))), telemetry.Int("insts", int64(total))))
	defer e.Trace.Exit(sp)
	telemetry.Count("aq2pnn_ot_send_insts_total", uint64(total))
	plan, err := planTokens(bits, func(i int) (int, int) { return batches[i].N, len(batches[i].Rows) }, len(batches))
	if err != nil {
		return err
	}
	if err := e.refillSend(plan.needs(func(n int) int { return len(e.sendStock[n]) / n })); err != nil {
		return err
	}
	ds, err := e.Conn.Recv()
	if err != nil {
		return err
	}
	if len(ds) != bitLen(plan.dsBits) {
		return fmt.Errorf("ot: expected %d shift bytes, got %d", bitLen(plan.dsBits), len(ds))
	}
	mask := byte(1<<bits - 1)
	out := make([]byte, bitLen(plan.ctBits))
	var dsPos, ctPos uint64
	taken := map[int]int{}
	for bi, b := range batches {
		n, w := b.N, plan.widths[bi]
		pre := e.sendStock[n][taken[n]*n : (taken[n]+len(b.Rows))*n]
		taken[n] += len(b.Rows)
		for k, row := range b.Rows {
			if len(row) != n {
				return fmt.Errorf("ot: batch %d instance %d has %d candidates, want %d", bi, k, len(row), n)
			}
			d := int(getBits(ds, dsPos, w))
			dsPos += uint64(w)
			if d >= n {
				return fmt.Errorf("ot: shift %d out of range for N=%d", d, n)
			}
			seeds := pre[k*n : (k+1)*n]
			for l := 0; l < n; l++ {
				if row[l] > mask {
					return fmt.Errorf("ot: token value exceeds %d bits", bits)
				}
				pad := shortPad(&seeds[(l+d)%n], 1)[0]
				putBits(out, ctPos, uint64(row[l]^(pad&mask)), bits)
				ctPos += uint64(bits)
			}
		}
	}
	if err := e.Conn.Send(out); err != nil {
		return err
	}
	for n, u := range plan.use {
		e.sendStock[n] = consume(e.sendStock[n], u*n)
	}
	return nil
}

// RecvTokens runs the receiver side; the result holds one token byte per
// instance, in batch order.
func (e *Endpoint) RecvTokens(bits uint, batches []RecvTokenBatch) ([][]byte, error) {
	total := 0
	for _, b := range batches {
		total += len(b.Choices)
	}
	if total == 0 {
		return make([][]byte, len(batches)), nil
	}
	sp := e.Trace.Enter("ot.recv.tokens", telemetry.WithAttrs(
		telemetry.Int("batches", int64(len(batches))), telemetry.Int("insts", int64(total))))
	defer e.Trace.Exit(sp)
	telemetry.Count("aq2pnn_ot_recv_insts_total", uint64(total))
	plan, err := planTokens(bits, func(i int) (int, int) { return batches[i].N, len(batches[i].Choices) }, len(batches))
	if err != nil {
		return nil, err
	}
	if err := e.refillRecv(plan.needs(func(n int) int { return len(e.recvStock[n]) })); err != nil {
		return nil, err
	}
	ds := make([]byte, bitLen(plan.dsBits))
	var dsPos uint64
	taken := map[int]int{}
	for bi, b := range batches {
		n, w := b.N, plan.widths[bi]
		pre := e.recvStock[n][taken[n] : taken[n]+len(b.Choices)]
		taken[n] += len(b.Choices)
		for k, ch := range b.Choices {
			if ch < 0 || ch >= n {
				return nil, fmt.Errorf("ot: choice %d outside [0,%d)", ch, n)
			}
			putBits(ds, dsPos, uint64(((pre[k].Choice-ch)%n+n)%n), w)
			dsPos += uint64(w)
		}
	}
	if err := e.Conn.Send(ds); err != nil {
		return nil, err
	}
	cts, err := e.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(cts) != bitLen(plan.ctBits) {
		return nil, fmt.Errorf("ot: expected %d ciphertext bytes, got %d", bitLen(plan.ctBits), len(cts))
	}
	mask := byte(1<<bits - 1)
	out := make([][]byte, len(batches))
	var ctPos uint64
	taken = map[int]int{}
	for bi, b := range batches {
		n := b.N
		pre := e.recvStock[n][taken[n] : taken[n]+len(b.Choices)]
		taken[n] += len(b.Choices)
		toks := make([]byte, len(b.Choices))
		for k, ch := range b.Choices {
			v := byte(getBits(cts, ctPos+uint64(ch)*uint64(bits), bits))
			ctPos += uint64(n) * uint64(bits)
			toks[k] = v ^ (shortPad(&pre[k].Seed, 1)[0] & mask)
		}
		out[bi] = toks
	}
	for n, u := range plan.use {
		e.recvStock[n] = consume(e.recvStock[n], u)
	}
	return out, nil
}

// refillSend tops up several arities' sender stock in one pass: one
// dealer take per arity, each from a stream of its own, so in any order;
// or else a single IKNP Extend call shared by every arity, in
// ascending-arity order.
func (e *Endpoint) refillSend(needs map[int]int) error {
	if e.Dealer != nil {
		for n, need := range needs {
			if err := dealArity(n); err != nil {
				return err
			}
			e.sendStock[n] = e.Dealer.TakeSender(e.sendStock[n], e.Party, n, max(need, minChunk))
		}
		return nil
	}
	arities := sortedArities(needs)
	if len(arities) == 0 {
		return nil
	}
	chunks, ts, total, err := refillSchedule(arities, needs)
	if err != nil {
		return err
	}
	s, err := e.sender()
	if err != nil {
		return err
	}
	// raw holds two seeds per 1-of-2 correlation; each arity's chunk
	// combines its t correlations per instance straight into the grown
	// stock, and raw goes back to its slab.
	raw, err := s.extend(e.Pool, domStock, total)
	if err != nil {
		return err
	}
	defer seedSlab.Put(raw)
	for i, n := range arities {
		t, chunk := ts[i], chunks[i]
		stock := slices.Grow(e.sendStock[n], chunk*n)
		fresh := stock[len(stock) : len(stock)+chunk*n]
		e.Pool.Blocks(chunk, func(lo, hi int) {
			h := hashers.Get().(*hasher)
			h.combineSend(fresh[lo*n:hi*n], raw[2*lo*t:2*hi*t], t)
			hashers.Put(h)
		})
		raw = raw[2*chunk*t:]
		e.sendStock[n] = stock[:len(stock)+chunk*n]
	}
	return nil
}

// refillRecv is the receiver counterpart of refillSend.
func (e *Endpoint) refillRecv(needs map[int]int) error {
	if e.Dealer != nil {
		for n, need := range needs {
			if err := dealArity(n); err != nil {
				return err
			}
			// The sender of these correlations is the other party.
			e.recvStock[n] = e.Dealer.TakeRecv(e.recvStock[n], 1-e.Party, n, max(need, minChunk))
		}
		return nil
	}
	arities := sortedArities(needs)
	if len(arities) == 0 {
		return nil
	}
	chunks, ts, total, err := refillSchedule(arities, needs)
	if err != nil {
		return err
	}
	r, err := e.receiver()
	if err != nil {
		return err
	}
	raw, err := r.extend(e.Pool, domStock, total)
	if err != nil {
		return err
	}
	defer instSlab.Put(raw)
	for i, n := range arities {
		t, chunk := ts[i], chunks[i]
		stock := slices.Grow(e.recvStock[n], chunk)
		fresh := stock[len(stock) : len(stock)+chunk]
		e.Pool.Blocks(chunk, func(lo, hi int) {
			h := hashers.Get().(*hasher)
			h.combineRecv(fresh[lo:hi], raw[lo*t:hi*t], t)
			hashers.Put(h)
		})
		raw = raw[chunk*t:]
		e.recvStock[n] = stock[:len(stock)+chunk]
	}
	return nil
}

// dealArity rejects an arity the online phase cannot serve (SendPre and
// RecvPre stop at 256) before a dealer deals stock for it.
func dealArity(n int) error {
	if n < 1 || n > 256 {
		return fmt.Errorf("ot: online derandomization supports 1 ≤ N ≤ 256, got %d", n)
	}
	return nil
}

func sortedArities(needs map[int]int) []int {
	arities := make([]int, 0, len(needs))
	for n := range needs {
		arities = append(arities, n)
	}
	sort.Ints(arities)
	return arities
}

// refillSchedule applies the minChunk floor per arity and totals the raw
// 1-of-2 correlations one Extend call must mint. Both endpoints compute it
// from symmetric stock levels, so the schedules agree without negotiation.
func refillSchedule(arities []int, needs map[int]int) (chunks, ts []int, total int, err error) {
	chunks = make([]int, len(arities))
	ts = make([]int, len(arities))
	for i, n := range arities {
		t, err := log2Arity(n)
		if err != nil {
			return nil, nil, 0, err
		}
		chunk := needs[n]
		if chunk < minChunk {
			chunk = minChunk
		}
		chunks[i], ts[i] = chunk, t
		total += chunk * t
	}
	return chunks, ts, total, nil
}

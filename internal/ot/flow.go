package ot

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/big"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// The OT-flow of Sec. 4.3.1, reconstructed from Fig. 4 and Eqs. 2–5.
// Party i (the SENDER, holding the possible-value matrix M_i) and party j
// (the RECEIVER, holding its group values M_j as choices) run:
//
//	init: both know (P, g) and a label list e2l: choice ↦ random exponent.
//	 ①  i: r_i ← rand,  ŕ = g^{r_i} mod P            → send ŕ (and labels)
//	 ②  j: per instance, with choice c: r_j ← rand,
//	       R = ŕ^{e2l(c)} · g^{r_j} mod P              → send R        (Eq. 2)
//	 ③  i: per candidate l:
//	       KEY_l = H( (R · ŕ^{−e2l(l)})^{r_i} mod P )
//	       Enc(m_l) = m_l ⊕ expand(KEY_l)             → send all Enc  (Eq. 3/4)
//	 ④  j: KEY = H( ŕ^{r_j} mod P ), decrypt Enc(m_c)                 (Eq. 5)
//
// When l = c the product in step ③ strips ŕ^{e2l(c)} and leaves exactly
// g^{r_j}, so (g^{r_j})^{r_i} = (g^{r_i})^{r_j} = ŕ^{r_j} and the keys
// agree; for l ≠ c the sender's key is an unrelated group element. The
// blinding is the group operation, as in Chou–Orlandi: R is a uniform
// element of ⟨g⟩ whatever c is. (Fig. 4 writes it as a XOR, which the
// sender can see through: for the wrong candidate R ⊕ ŕ^{e2l(l)} can be
// at least P, or a non-residue where g^{r_j} never is.) Unlike the paper
// (which reuses r_j across the v dimension), we draw fresh r_j per
// instance so identical choices do not produce identical pads.

// ElemError reports a peer's group element outside [1, P): the modulus
// itself, zero or an unreduced value is no element of the group, and
// unblinding one would hand the sender information the flow must not.
type ElemError struct {
	Field string // "G", "ŕ" or "R"
	Index int    // the instance of an R element; 0 otherwise
}

func (e *ElemError) Error() string {
	return fmt.Sprintf("ot: peer element %s[%d] outside [1, P)", e.Field, e.Index)
}

// checkElem rejects x unless 1 ≤ x < P.
func checkElem(grp Group, x *big.Int, field string, index int) error {
	if x.Sign() <= 0 || x.Cmp(grp.P) >= 0 {
		return &ElemError{Field: field, Index: index}
	}
	return nil
}

// padFromKey expands a key (a serialised group element) into an l-byte XOR
// pad via SHA-256 → AES-CTR. prg.Keystream yields the same bytes as a
// prg.New stream without its 8 KiB buffer.
func padFromKey(key []byte, l int) []byte {
	var seed [prg.SeedSize]byte
	sum := sha256.Sum256(key)
	copy(seed[:], sum[:])
	p := make([]byte, l)
	prg.Keystream(p, seed)
	return p
}

// flowHeader carries the sender's setup: group parameters, labels and ŕ.
type flowHeader struct {
	group  Group
	labels []*big.Int
	rHat   *big.Int
}

func (h flowHeader) encode() []byte {
	eb := h.group.ElemBytes()
	buf := make([]byte, 0, 12+eb*(3+len(h.labels)))
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(eb))
	buf = append(buf, n[:]...)
	binary.LittleEndian.PutUint32(n[:], uint32(len(h.labels)))
	buf = append(buf, n[:]...)
	buf = append(buf, h.group.Encode(h.group.P)...)
	buf = append(buf, h.group.Encode(h.group.G)...)
	buf = append(buf, h.group.Encode(h.rHat)...)
	for _, l := range h.labels {
		buf = append(buf, h.group.Encode(l)...)
	}
	return buf
}

// Hostile-peer caps on the flow header's declared dimensions, checked
// BEFORE the eb·(3+nl) product so a giant pair of 32-bit fields can
// neither overflow the int arithmetic nor size an allocation. 8 KiB per
// element covers a 65536-bit modulus (far beyond any sane group); 65536
// labels covers a 1-of-2^16 OT, well past the protocol's largest fan-out.
const (
	maxFlowElemBytes = 1 << 13
	maxFlowLabels    = 1 << 16
)

func decodeFlowHeader(p []byte) (flowHeader, error) {
	var h flowHeader
	if len(p) < 8 {
		return h, fmt.Errorf("ot: truncated flow header")
	}
	eb := int(binary.LittleEndian.Uint32(p[:4]))
	nl := int(binary.LittleEndian.Uint32(p[4:8]))
	p = p[8:]
	if eb <= 0 || eb > maxFlowElemBytes || nl < 0 || nl > maxFlowLabels {
		return h, fmt.Errorf("ot: flow header declares eb=%d nl=%d, caps %d/%d", eb, nl, maxFlowElemBytes, maxFlowLabels)
	}
	if len(p) != eb*(3+nl) {
		return h, fmt.Errorf("ot: malformed flow header (eb=%d nl=%d len=%d)", eb, nl, len(p))
	}
	take := func() *big.Int {
		v := new(big.Int).SetBytes(p[:eb])
		p = p[eb:]
		return v
	}
	h.group = Group{P: take(), G: take()}
	h.rHat = take()
	h.labels = make([]*big.Int, nl)
	for i := range h.labels {
		h.labels[i] = take()
	}
	if h.group.P.Sign() == 0 {
		return h, fmt.Errorf("ot: zero modulus in flow header")
	}
	// The declared element width must be the group's canonical one, or the
	// sender's later Encode calls and our slicing disagree on boundaries.
	if h.group.ElemBytes() != eb {
		return h, fmt.Errorf("ot: flow header element width %d does not match modulus width %d", eb, h.group.ElemBytes())
	}
	if err := checkElem(h.group, h.group.G, "G", 0); err != nil {
		return h, err
	}
	if err := checkElem(h.group, h.rHat, "ŕ", 0); err != nil {
		return h, err
	}
	return h, nil
}

// FlowSend runs the sender side (party i) of a batch of 1-of-N OTs over
// the paper's OT-flow. msgs[k][l] is the l-th candidate message of
// instance k; all messages must share one length. It costs 2 messages from
// the sender and 1 from the receiver.
func FlowSend(c transport.Conn, grp Group, rng *prg.PRG, n int, msgs [][][]byte) error {
	if n < 2 {
		return fmt.Errorf("ot: 1-of-%d transfer is not an OT", n)
	}
	msgLen := -1
	for k := range msgs {
		if len(msgs[k]) != n {
			return fmt.Errorf("ot: instance %d has %d candidates, want %d", k, len(msgs[k]), n)
		}
		for _, m := range msgs[k] {
			if msgLen == -1 {
				msgLen = len(m)
			} else if len(m) != msgLen {
				return fmt.Errorf("ot: candidate messages have mixed lengths")
			}
		}
	}
	if msgLen <= 0 {
		return fmt.Errorf("ot: empty batch or empty messages")
	}
	ri := grp.RandScalar(rng)
	rHat := grp.ExpG(ri)
	labels := make([]*big.Int, n)
	for i := range labels {
		labels[i] = grp.RandScalar(rng)
	}
	hdr := flowHeader{group: grp, labels: labels, rHat: rHat}
	if err := c.Send(hdr.encode()); err != nil {
		return err
	}
	// ② receive all R values.
	eb := grp.ElemBytes()
	rsRaw, err := c.Recv()
	if err != nil {
		return err
	}
	if len(rsRaw) != eb*len(msgs) {
		return fmt.Errorf("ot: expected %d R-bytes, got %d", eb*len(msgs), len(rsRaw))
	}
	// Every R must be a group element before any exponentiation.
	rs := make([]*big.Int, len(msgs))
	for k := range rs {
		rs[k] = new(big.Int).SetBytes(rsRaw[k*eb : (k+1)*eb])
		if err := checkElem(grp, rs[k], "R", k); err != nil {
			return err
		}
	}
	// ŕ^{−e2l(l)} once per candidate, shared across instances.
	inv := make([]*big.Int, n)
	for l := range inv {
		inv[l] = new(big.Int).ModInverse(grp.Exp(rHat, labels[l]), grp.P)
		if inv[l] == nil {
			return fmt.Errorf("ot: ŕ^{e2l(%d)} has no inverse: the modulus is not prime", l)
		}
	}
	// ③ encrypt every candidate of every instance.
	out := make([]byte, 0, len(msgs)*n*msgLen)
	base := new(big.Int)
	for k, r := range rs {
		for l := 0; l < n; l++ {
			base.Mul(r, inv[l]).Mod(base, grp.P)
			key := grp.Encode(grp.Exp(base, ri))
			ct := append([]byte(nil), msgs[k][l]...)
			subtle.XORBytes(ct, ct, padFromKey(key, msgLen))
			out = append(out, ct...)
		}
	}
	return c.Send(out)
}

// FlowRecv runs the receiver side (party j): choices[k] selects the message
// obtained for instance k. msgLen must match the sender's message length.
func FlowRecv(c transport.Conn, rng *prg.PRG, n int, choices []int, msgLen int) ([][]byte, error) {
	hdrRaw, err := c.Recv()
	if err != nil {
		return nil, err
	}
	hdr, err := decodeFlowHeader(hdrRaw)
	if err != nil {
		return nil, err
	}
	if len(hdr.labels) != n {
		return nil, fmt.Errorf("ot: sender announced %d labels, want %d", len(hdr.labels), n)
	}
	grp := hdr.group
	eb := grp.ElemBytes()
	rjs := make([]*big.Int, len(choices))
	rs := make([]byte, 0, eb*len(choices))
	// ŕ^{e2l(c)} once per candidate value, on first use.
	pows := make([]*big.Int, n)
	r := new(big.Int)
	for k, ch := range choices {
		// Report the position only: the choice value is the receiver's
		// secret selection and must not surface in error text.
		if ch < 0 || ch >= n {
			return nil, fmt.Errorf("ot: choice at index %d outside [0,%d)", k, n)
		}
		if pows[ch] == nil {
			pows[ch] = grp.Exp(hdr.rHat, hdr.labels[ch])
		}
		rj := grp.RandScalar(rng)
		rjs[k] = rj
		r.Mul(pows[ch], grp.ExpG(rj)).Mod(r, grp.P) // ŕ^{e2l(c)} · g^{r_j}   (Eq. 2)
		rs = append(rs, grp.Encode(r)...)
	}
	if err := c.Send(rs); err != nil {
		return nil, err
	}
	cts, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if len(cts) != len(choices)*n*msgLen {
		return nil, fmt.Errorf("ot: expected %d ciphertext bytes, got %d", len(choices)*n*msgLen, len(cts))
	}
	out := make([][]byte, len(choices))
	for k, ch := range choices {
		key := grp.Encode(grp.Exp(hdr.rHat, rjs[k])) // ŕ^{r_j}  (Eq. 5)
		m := append([]byte(nil), cts[(k*n+ch)*msgLen:(k*n+ch+1)*msgLen]...)
		subtle.XORBytes(m, m, padFromKey(key, msgLen))
		out[k] = m
	}
	return out, nil
}

// Package a2b implements the Arithmetic-to-Binary share conversion machine
// (A2BM, Sec. 4.3.2): it splits an ℓ-bit ring element into U bit-groups,
// MSB first — x ← x₇ ‖ x₆ ‖ x₅x₄ ‖ x₃x₂ ‖ x₁x₀ for INT8 — so that each
// group can drive a (1, 2^su)-OT in the secure comparison machine. The two
// most significant groups are single bits ((1,2)-OT); the remaining groups
// are two bits wide ((1,4)-OT), with a trailing single-bit group when ℓ is
// odd.
package a2b

import (
	"fmt"

	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
)

// Conversion volume counters, pre-registered so the per-element hot path
// pays one branch disabled and one atomic add enabled (no name lookup).
var (
	splitCounter    = telemetry.Default().Counter("aq2pnn_a2b_splits_total")
	splitLowCounter = telemetry.Default().Counter("aq2pnn_a2b_splits_low_total")
)

// Groups returns the group bit-widths for an ℓ-bit value, MSB first.
// For even ℓ the layout is [1, 1, 2, 2, …, 2] with U = ℓ/2 + 1 groups,
// matching the paper's U = ⌊ℓ/2⌋ + 1.
func Groups(bits uint) []uint {
	if bits == 0 {
		// Every caller passes ring.Ring.Bits, which ring.New bounds to
		// [1,MaxBits].
		panic("a2b: zero bit-length")
	}
	if bits == 1 {
		return []uint{1}
	}
	gs := []uint{1, 1}
	rem := bits - 2
	for rem >= 2 {
		gs = append(gs, 2)
		rem -= 2
	}
	if rem == 1 {
		gs = append(gs, 1)
	}
	return gs
}

// U returns the number of groups for an ℓ-bit value: the two sign-end
// single bits, then ⌈(ℓ−2)/2⌉ groups of the rest.
func U(bits uint) int {
	if bits == 0 {
		// Every caller passes ring.Ring.Bits, which ring.New bounds to
		// [1,MaxBits].
		panic("a2b: zero bit-length")
	}
	if bits == 1 {
		return 1
	}
	return 2 + int(bits-1)/2
}

// MaxU is U(ring.MaxBits): a [MaxU]uint64 array holds any element's groups,
// so hot loops split into a stack array.
const MaxU = 2 + (ring.MaxBits-1)/2

// Split decomposes x (an element of r) into its group values, MSB first.
// Split(r, x)[0] is the sign bit.
func Split(r ring.Ring, x uint64) []uint64 {
	out := make([]uint64, U(r.Bits))
	SplitInto(out, r, x)
	return out
}

// SplitInto is Split writing into dst[:U(r.Bits)]. The 1‖1‖2‖…‖(1) layout
// is computed by arithmetic, so the call allocates nothing.
func SplitInto(dst []uint64, r ring.Ring, x uint64) {
	if telemetry.Enabled() {
		splitCounter.Inc()
	}
	dst = dst[:U(r.Bits)]
	dst[0] = (x >> (r.Bits - 1)) & 1
	if r.Bits > 1 {
		splitLow(dst[1:], r.Bits, x)
	}
}

// splitLow writes the groups of the low bits−1 bits of x into dst, MSB
// first: one single bit, 2-bit groups, and a trailing single bit when bits
// is odd. len(dst) is U(bits)−1 and bits ≥ 2.
func splitLow(dst []uint64, bits uint, x uint64) {
	shift := bits - 2
	dst[0] = (x >> shift) & 1
	for i := 1; i < len(dst); i++ {
		if shift >= 2 {
			shift -= 2
			dst[i] = (x >> shift) & 3
		} else {
			dst[i] = x & 1
		}
	}
}

// Join is the inverse of Split.
func Join(r ring.Ring, groups []uint64) (uint64, error) {
	gs := Groups(r.Bits)
	if len(groups) != len(gs) {
		return 0, fmt.Errorf("a2b: %d groups for a %d-group layout", len(groups), len(gs))
	}
	var x uint64
	for i, w := range gs {
		if groups[i] >= 1<<w {
			return 0, fmt.Errorf("a2b: group %d value %d exceeds %d bits", i, groups[i], w)
		}
		//lint:allow ringmask bit-group reassembly: the groups are validated against their widths, so the shifts stay inside the ℓ-bit layout
		x = x<<w | groups[i]
	}
	return x, nil
}

// SplitLow decomposes the low ℓ−1 bits of x (the value with the sign bit
// stripped) into the full layout minus its sign group: [1, 2, 2, …] for
// even ℓ. These are the groups the secure comparison machine actually
// transfers; the sign bits are folded into the final XOR by quadrant
// detection.
func SplitLow(r ring.Ring, x uint64) []uint64 {
	var out []uint64
	if r.Bits > 1 {
		out = make([]uint64, U(r.Bits)-1)
	}
	SplitLowInto(out, r, x)
	return out
}

// SplitLowInto is SplitLow writing into dst[:U(r.Bits)−1]. Like SplitLow
// it counts one low split and, for ℓ > 1, one full split.
func SplitLowInto(dst []uint64, r ring.Ring, x uint64) {
	if telemetry.Enabled() {
		splitLowCounter.Inc()
	}
	if r.Bits == 1 {
		return
	}
	if telemetry.Enabled() {
		splitCounter.Inc()
	}
	splitLow(dst[:U(r.Bits)-1], r.Bits, x)
}

// LowGroups returns the group widths used by SplitLow.
func LowGroups(bits uint) []uint {
	if bits <= 1 {
		return nil
	}
	return Groups(bits)[1:]
}

// Arities returns the distinct OT arities (2^w per group width) of a group
// layout, in ascending order. The comparison machine batches one coalesced
// token slice per arity, so this is also the deterministic batch schedule
// both parties derive independently.
func Arities(widths []uint) []int {
	var out []int
	for _, w := range widths {
		n := 1 << w
		found := false
		for _, have := range out {
			if have == n {
				found = true
				break
			}
		}
		if !found {
			out = append(out, n)
		}
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

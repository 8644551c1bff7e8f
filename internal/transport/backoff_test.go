package transport

import (
	"math"
	"testing"
	"time"
)

// TestBackoffDelayTable pins the policy's envelope: for each (policy,
// attempt) the delay must land inside the documented jitter window of the
// capped exponential.
func TestBackoffDelayTable(t *testing.T) {
	cases := []struct {
		name    string
		b       Backoff
		attempt int
		lo, hi  time.Duration // inclusive bounds on the returned delay
	}{
		{"defaults attempt 0", Backoff{}, 0, 50 * time.Millisecond, 100 * time.Millisecond},
		{"defaults attempt 3", Backoff{}, 3, 400 * time.Millisecond, 800 * time.Millisecond},
		{"defaults hits ceiling", Backoff{}, 10, time.Second, 2 * time.Second},
		{"explicit base grows", Backoff{Base: 10 * time.Millisecond, Max: time.Second}, 2,
			20 * time.Millisecond, 40 * time.Millisecond},
		{"explicit ceiling caps", Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}, 6,
			40 * time.Millisecond, 80 * time.Millisecond},
		{"ceiling survives huge attempt", Backoff{Base: time.Millisecond, Max: time.Second}, 62,
			500 * time.Millisecond, time.Second},
		{"base above ceiling clamps", Backoff{Base: 5 * time.Second, Max: time.Second}, 0,
			500 * time.Millisecond, time.Second},
		{"base between half-max and max", Backoff{Base: 1500 * time.Millisecond, Max: 2 * time.Second}, 1,
			time.Second, 2 * time.Second},
		{"huge ceiling no overflow", Backoff{Base: time.Nanosecond, Max: math.MaxInt64}, 200,
			math.MaxInt64 / 2, math.MaxInt64},
		{"full jitter attempt 0", Backoff{FullJitter: true}, 0, 1, 100 * time.Millisecond},
		{"full jitter at ceiling", Backoff{Max: 50 * time.Millisecond, FullJitter: true}, 20,
			1, 50 * time.Millisecond},
		{"full jitter one-ns base", Backoff{Base: time.Nanosecond, Max: time.Nanosecond, FullJitter: true}, 0,
			time.Nanosecond, time.Nanosecond},
	}
	for _, c := range cases {
		for seed := uint64(0); seed < 32; seed++ {
			d := c.b.Delay(c.attempt, seed)
			if d < c.lo || d > c.hi {
				t.Errorf("%s: seed %d delay %v outside [%v, %v]", c.name, seed, d, c.lo, c.hi)
			}
			if d2 := c.b.Delay(c.attempt, seed); d2 != d {
				t.Errorf("%s: seed %d nondeterministic: %v vs %v", c.name, seed, d, d2)
			}
		}
	}
}

// TestBackoffFullJitterSpreads checks the full-jitter window is actually
// wider than equal jitter's: across seeds, some delays must land below
// half the capped exponential (which equal jitter can never produce).
func TestBackoffFullJitterSpreads(t *testing.T) {
	eq := Backoff{Base: 64 * time.Millisecond, Max: time.Second}
	fj := Backoff{Base: 64 * time.Millisecond, Max: time.Second, FullJitter: true}
	belowHalf := 0
	for seed := uint64(0); seed < 64; seed++ {
		if d := eq.Delay(2, seed); d < 128*time.Millisecond {
			t.Fatalf("equal jitter produced %v below half the 256ms step", d)
		}
		if fj.Delay(2, seed) < 128*time.Millisecond {
			belowHalf++
		}
	}
	if belowHalf == 0 {
		t.Error("full jitter never landed below half the step across 64 seeds")
	}
}

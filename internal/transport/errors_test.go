package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"injected", ErrInjected, true},
		{"injected wrapped", fmt.Errorf("engine: node 3: %w", ErrInjected), true},
		{"closed", ErrClosed, true},
		{"net closed", net.ErrClosed, true},
		{"eof", io.EOF, true},
		{"unexpected eof", io.ErrUnexpectedEOF, true},
		{"conn refused", syscall.ECONNREFUSED, true},
		{"conn reset", fmt.Errorf("dial: %w", syscall.ECONNRESET), true},
		{"op error", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"ctx canceled", context.Canceled, false},
		{"ctx deadline", context.DeadlineExceeded, false},
		{"ctx canceled wrapped", fmt.Errorf("dial: %w", context.Canceled), false},
		{"unknown", errors.New("engine: handshake carrier mismatch"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	base, max := 50*time.Millisecond, time.Second
	b := Backoff{Base: base, Max: max}
	var prevCap time.Duration
	for attempt := 0; attempt < 12; attempt++ {
		d1 := b.Delay(attempt, 7)
		d2 := b.Delay(attempt, 7)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, d1, d2)
		}
		capAt := base << uint(attempt)
		if capAt > max || capAt <= 0 {
			capAt = max
		}
		if d1 < capAt/2 || d1 > capAt {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d1, capAt/2, capAt)
		}
		if capAt >= prevCap {
			prevCap = capAt
		} else {
			t.Errorf("attempt %d: backoff cap shrank", attempt)
		}
	}
	// Different seeds should usually produce different jitter.
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		if b.Delay(attempt, 1) == b.Delay(attempt, 2) {
			same++
		}
	}
	if same == 8 {
		t.Error("jitter identical across seeds for every attempt")
	}
	if d := (Backoff{}).Delay(0, 0); d <= 0 || d > 2*time.Second {
		t.Errorf("zero-value defaults gave %v", d)
	}
}

// TestDialContextBackoffRespectsTimeout dials a dead address and checks
// the retry loop gives up within the window instead of overshooting it by
// a full (now exponential) backoff step.
func TestDialContextBackoffRespectsTimeout(t *testing.T) {
	// Reserve a port with no listener behind it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	start := time.Now()
	_, err = Dial(addr, 400*time.Millisecond)
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if !IsTransient(err) {
		t.Errorf("dead-address dial error %v not classified transient", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("dial gave up after %v, window was 400ms", elapsed)
	}
}

package transport

import (
	"errors"
	"sync"
	"testing"
)

func TestStatsSub(t *testing.T) {
	prev := Stats{BytesSent: 100, BytesRecv: 40, MsgsSent: 3, MsgsRecv: 2, Rounds: 1}
	cur := Stats{BytesSent: 250, BytesRecv: 90, MsgsSent: 7, MsgsRecv: 5, Rounds: 3, SendErrs: 1}
	d := cur.Sub(prev)
	want := Stats{BytesSent: 150, BytesRecv: 50, MsgsSent: 4, MsgsRecv: 3, Rounds: 2, SendErrs: 1}
	if d != want {
		t.Errorf("Sub = %+v, want %+v", d, want)
	}
	// A reset between the two snapshots makes prev > cur; the delta must
	// saturate rather than wrap to ~2^64.
	if g := prev.Sub(cur); g.BytesSent != 0 || g.Rounds != 0 {
		t.Errorf("saturating Sub = %+v, want zeros", g)
	}
	// Sub is the inverse of Add on monotone counters.
	sum := prev
	sum.Add(want)
	if sum != cur {
		t.Errorf("prev + (cur−prev) = %+v, want %+v", sum, cur)
	}
}

// TestStatsConcurrentSnapshots hammers one endpoint with concurrent sends,
// receives and snapshots (run under -race): every snapshot must be
// internally consistent — whole operations only, rounds never ahead of
// receives — and consecutive snapshots must be monotone so span deltas
// (Sub of two snapshots) are always meaningful.
func TestStatsConcurrentSnapshots(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	const msgs = 300
	payload := make([]byte, 64)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // a sends to b
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			mustSend(t, a, payload)
		}
	}()
	go func() { // b echoes back, so a's recv path and round logic run too
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			mustSend(t, b, mustRecv(t, b))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			mustRecv(t, a)
		}
	}()

	stop := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		var prev Stats
		for {
			s := a.Stats()
			switch {
			case s.BytesSent%uint64(len(payload)) != 0 || s.BytesRecv%uint64(len(payload)) != 0:
				snapErr <- errors.New("snapshot caught a partial message")
				return
			case s.Rounds > s.MsgsRecv:
				snapErr <- errors.New("rounds counted ahead of receives")
				return
			case s.Sub(prev) != s.Sub(prev): // exercise Sub under race
				snapErr <- errors.New("unreachable")
				return
			case s.BytesSent < prev.BytesSent || s.BytesRecv < prev.BytesRecv || s.Rounds < prev.Rounds:
				snapErr <- errors.New("snapshot went backwards")
				return
			}
			prev = s
			select {
			case <-stop:
				snapErr <- nil
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}
	final := a.Stats()
	if final.MsgsSent != msgs || final.MsgsRecv != msgs {
		t.Errorf("final stats %+v, want %d msgs each way", final, msgs)
	}
}

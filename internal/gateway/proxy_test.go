package gateway

import (
	"testing"

	"aq2pnn/internal/transport"
)

// heldBackend is the splice's backend side. Send delivers the frame and
// then waits for release, as a pump descheduled after its write would;
// the second Recv closes recvAgain, which the server→client pump reaches
// only once it has handled the first frame it read.
type heldBackend struct {
	transport.Conn
	release   chan struct{}
	recvAgain chan struct{}
	recvs     int
}

func (c *heldBackend) Send(p []byte) error {
	err := c.Conn.Send(p)
	<-c.release
	return err
}

func (c *heldBackend) Recv() ([]byte, error) {
	if c.recvs++; c.recvs == 2 {
		close(c.recvAgain)
	}
	return c.Conn.Recv()
}

// TestSpliceDirectionFollowsTheAnswer: a request whose forward returns
// only after its answer has reached the client is not recorded as the
// last frame moved. The backend then drops the session with nothing
// outstanding, and the splice must read server→client, which the proxy
// scores as neutral, not as a request left unanswered.
func TestSpliceDirectionFollowsTheAnswer(t *testing.T) {
	clientPeer, clientSide := transport.Pipe()
	backendSide, backendPeer := transport.Pipe()
	backend := &heldBackend{Conn: backendSide, release: make(chan struct{}), recvAgain: make(chan struct{})}
	done := make(chan spliceResult, 1)
	go func() { done <- splice(clientSide, backend) }()

	if err := clientPeer.Send([]byte("request")); err != nil {
		t.Fatal(err)
	}
	if _, err := backendPeer.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := backendPeer.Send([]byte("answer")); err != nil {
		t.Fatal(err)
	}
	if _, err := clientPeer.Recv(); err != nil {
		t.Fatal(err)
	}
	<-backend.recvAgain
	close(backend.release)
	backendPeer.Close()
	res := <-done
	clientPeer.Close()
	if res.lastDir != dirServerToClient || res.sendFailed || res.sawEnd {
		t.Errorf("splice ended %+v, want the answer as the last frame moved", res)
	}
}

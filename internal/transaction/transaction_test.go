package transaction

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

// linkPair builds two linked endpoints over the mem transport.
func linkPair(t *testing.T, cfg LinkConfig) (*Link, *Link) {
	t.Helper()
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	dialed, err := tr.Dial("peer")
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	a := NewLink(dialed, cfg)
	b := NewLink(accepted, cfg)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
		_ = tr.Close()
	})
	return a, b
}

// lossyConn drops the first n data sends (acks pass through).
type lossyConn struct {
	transport.Conn
	mu    sync.Mutex
	drops int
}

func (c *lossyConn) Send(m *wire.Message) error {
	if m.Kind != wire.KindAck {
		c.mu.Lock()
		if c.drops > 0 {
			c.drops--
			c.mu.Unlock()
			return nil // silently lost
		}
		c.mu.Unlock()
	}
	return c.Conn.Send(m)
}

func TestLinkBestEffortSend(t *testing.T) {
	a, b := linkPair(t, LinkConfig{})
	if err := a.Send(&wire.Message{Kind: wire.KindData, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Payload) != "hi" {
		t.Fatalf("payload = %q", m.Payload)
	}
}

func TestLinkReliableDelivery(t *testing.T) {
	a, b := linkPair(t, LinkConfig{RetryInterval: 10 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		done <- a.SendReliable(&wire.Message{Kind: wire.KindData, Src: "a", Payload: []byte("rel")})
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Payload) != "rel" {
		t.Fatalf("payload = %q", m.Payload)
	}
	if err := <-done; err != nil {
		t.Fatalf("SendReliable: %v", err)
	}
}

func TestLinkRetransmitsThroughLoss(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	t.Cleanup(func() { _ = tr.Close() })
	l, err := tr.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	dialed, err := tr.Dial("peer")
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	lossy := &lossyConn{Conn: dialed, drops: 2}
	a := NewLink(lossy, LinkConfig{RetryInterval: 5 * time.Millisecond, MaxRetries: 10})
	b := NewLink(accepted, LinkConfig{})
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })

	done := make(chan error, 1)
	go func() {
		done <- a.SendReliable(&wire.Message{Kind: wire.KindData, Src: "a", Payload: []byte("x")})
	}()
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if a.Retransmissions.Load() < 2 {
		t.Fatalf("retransmissions = %d, want >= 2", a.Retransmissions.Load())
	}
}

func TestLinkGivesUpAfterMaxRetries(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	t.Cleanup(func() { _ = tr.Close() })
	l, err := tr.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	dialed, err := tr.Dial("peer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Accept(); err != nil {
		t.Fatal(err)
	}
	// Drop everything: the peer never sees the message, never acks.
	lossy := &lossyConn{Conn: dialed, drops: 1 << 30}
	a := NewLink(lossy, LinkConfig{RetryInterval: time.Millisecond, MaxRetries: 3})
	t.Cleanup(func() { _ = a.Close() })
	err = a.SendReliable(&wire.Message{Kind: wire.KindData, Src: "a"})
	if !errors.Is(err, ErrDeliveryFailed) {
		t.Fatalf("err = %v, want ErrDeliveryFailed", err)
	}
}

func TestLinkDuplicateSuppression(t *testing.T) {
	// Slow the sender's ack processing by delaying our read: the sender
	// retransmits, receiver must deliver only once.
	a, b := linkPair(t, LinkConfig{RetryInterval: 5 * time.Millisecond, MaxRetries: 20})
	done := make(chan error, 1)
	go func() {
		done <- a.SendReliable(&wire.Message{Kind: wire.KindData, Src: "a", Payload: []byte("once")})
	}()
	// First delivery.
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// No duplicate delivery afterwards.
	got := make(chan *wire.Message, 1)
	go func() {
		if m, err := b.Recv(); err == nil {
			got <- m
		}
	}()
	select {
	case m := <-got:
		t.Fatalf("duplicate delivered: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

// An ack that wins stops the call's retry timer, so none is left on the
// clock: the virtual clock never moves, so only the ack can end the call.
func TestSendReliableAckLeavesNoTimer(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	a, _ := linkPair(t, LinkConfig{Clock: clk})
	if err := a.SendReliable(&wire.Message{Kind: wire.KindData, Src: "a"}); err != nil {
		t.Fatal(err)
	}
	if got := clk.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after an acked send, want 0", got)
	}
}

func TestLinkCloseUnblocksRecv(t *testing.T) {
	a, _ := linkPair(t, LinkConfig{})
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrLinkClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv not unblocked")
	}
	_ = a.Close() // idempotent
}

func TestLinkSendReliableAfterClose(t *testing.T) {
	a, _ := linkPair(t, LinkConfig{})
	_ = a.Close()
	err := a.SendReliable(&wire.Message{Kind: wire.KindData})
	if err == nil {
		t.Fatal("send after close succeeded")
	}
}

// --- schedules ---

func TestPeriodicSchedule(t *testing.T) {
	p := Periodic{Period: time.Second}
	next, ok := p.Next(epoch)
	if !ok || !next.Equal(epoch.Add(time.Second)) {
		t.Fatalf("Next = %v, %v", next, ok)
	}
}

func TestDemandSchedule(t *testing.T) {
	d := Demand{}
	if _, ok := d.Next(epoch); ok {
		t.Fatal("on-demand schedule proposed a proactive send")
	}
}

func TestPredictorLearnsInterval(t *testing.T) {
	p := &Predictor{Initial: time.Second, Alpha: 0.5}
	if got := p.Predicted(); got != time.Second {
		t.Fatalf("initial prediction = %v", got)
	}
	// Feed regular 100ms events; prediction must converge there.
	at := epoch
	for i := 0; i < 12; i++ {
		p.Observe(at)
		at = at.Add(100 * time.Millisecond)
	}
	got := p.Predicted()
	if got < 90*time.Millisecond || got > 110*time.Millisecond {
		t.Fatalf("prediction = %v, want ≈100ms", got)
	}
	next, ok := p.Next(at)
	if !ok {
		t.Fatal("predictor refused to predict")
	}
	if next.Sub(at) != got {
		t.Fatalf("Next interval %v != predicted %v", next.Sub(at), got)
	}
}

func TestPredictorAdaptsToChange(t *testing.T) {
	p := &Predictor{Initial: time.Second, Alpha: 0.5}
	at := epoch
	for i := 0; i < 10; i++ {
		p.Observe(at)
		at = at.Add(100 * time.Millisecond)
	}
	// Rate slows 10x; EWMA must move toward 1s.
	for i := 0; i < 10; i++ {
		p.Observe(at)
		at = at.Add(time.Second)
	}
	got := p.Predicted()
	if got < 800*time.Millisecond {
		t.Fatalf("prediction = %v, want near 1s after slowdown", got)
	}
}

func TestPredictorNoInitial(t *testing.T) {
	p := &Predictor{}
	if _, ok := p.Next(epoch); ok {
		t.Fatal("predictor with no data and no initial predicted")
	}
}

func TestPumpPeriodic(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	var mu sync.Mutex
	var emitted [][]byte
	i := 0
	pump := NewPump(clk, Periodic{Period: time.Second},
		func() ([]byte, bool) {
			i++
			return []byte{byte(i)}, i <= 3
		},
		func(b []byte) error {
			mu.Lock()
			emitted = append(emitted, b)
			mu.Unlock()
			return nil
		})
	for j := 0; j < 4; j++ {
		deadline := time.Now().Add(5 * time.Second)
		for clk.Pending() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("pump never armed its timer")
			}
			time.Sleep(time.Millisecond)
		}
		clk.Advance(time.Second)
	}
	pump.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(emitted) != 3 || emitted[0][0] != 1 || emitted[2][0] != 3 {
		t.Fatalf("emitted = %v", emitted)
	}
}

// Stop stops the timer of the emission the pump was waiting for.
func TestPumpStopLeavesNoTimer(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	pump := NewPump(clk, Periodic{Period: time.Second},
		func() ([]byte, bool) { return nil, true },
		func([]byte) error { return nil })
	deadline := time.Now().Add(5 * time.Second)
	for clk.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pump never armed its timer")
		}
		time.Sleep(time.Millisecond)
	}
	pump.Stop()
	if got := clk.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0", got)
	}
}

func TestPumpOnDemandExitsImmediately(t *testing.T) {
	pump := NewPump(nil, Demand{}, func() ([]byte, bool) { return nil, true }, func([]byte) error { return nil })
	done := make(chan struct{})
	go func() {
		pump.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("on-demand pump did not exit")
	}
}

func TestPumpCountsEmitErrors(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	n, errs := 0, 0
	pump := NewPump(clk, Periodic{Period: time.Second},
		func() ([]byte, bool) { n++; return nil, n <= 2 },
		func([]byte) error { errs++; return errors.New("boom") })
	for j := 0; j < 3; j++ {
		deadline := time.Now().Add(5 * time.Second)
		for clk.Pending() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("pump never armed")
			}
			time.Sleep(time.Millisecond)
		}
		clk.Advance(time.Second)
	}
	pump.Stop()
	if errs != 2 {
		t.Fatalf("failed emits = %d, want 2: an emit error must not stop the pump", errs)
	}
}

// Package transaction implements the paper's transaction feature (§3.6):
// the managed interaction between a service supplier and a service consumer.
//
// It provides two things:
//
//   - Link: delivery guarantees over any transport connection — best-effort
//     sends, or at-least-once with acknowledgements, retransmission, and
//     receiver-side duplicate suppression (which together give the consumer
//     effectively-once delivery),
//   - Schedules: the paper's transaction classes — continuous (Periodic),
//     intermittent with prediction (Predictor, an EWMA next-arrival
//     predictor), and on-demand (Demand) — and the Pump that runs them.
//
// A live transaction is a core.Binding; a departing supplier's bindings
// move by their own rebind (core.Node.HandoffPeer, §3.7).
package transaction

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// Link errors.
var (
	ErrDeliveryFailed = errors.New("transaction: delivery failed after retries")
	ErrLinkClosed     = errors.New("transaction: link closed")
)

// reliableHeader marks messages that demand an acknowledgement.
const reliableHeader = "tx-rel"

// dedupeWindow bounds the receiver's duplicate-suppression memory per peer.
const dedupeWindow = 4096

// recvBuffer is the delivered-message queue depth.
const recvBuffer = 64

// LinkConfig tunes a reliable link.
type LinkConfig struct {
	// RetryInterval is the retransmission period (default 50ms).
	RetryInterval time.Duration
	// MaxRetries bounds retransmissions per message (default 5).
	MaxRetries int
	// Clock drives retransmission timers (default real).
	Clock simtime.Clock
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.RetryInterval <= 0 {
		c.RetryInterval = 50 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	c.Clock = simtime.OrReal(c.Clock)
	return c
}

// Link layers delivery guarantees over one transport connection. Both ends
// of a conversation wrap their side in a Link.
type Link struct {
	cfg  LinkConfig
	conn transport.Conn

	nextID atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan struct{}
	seen    map[string]map[uint64]bool
	seenOrd map[string][]uint64
	closed  bool

	recv chan *wire.Message
	stop chan struct{} // closed by Close to abort blocked deliveries
	done chan struct{} // closed when demux exits

	// Retransmissions counts retries actually sent.
	Retransmissions atomic.Int64
	// Duplicates counts received duplicates suppressed.
	Duplicates atomic.Int64
}

// NewLink wraps a connection. The link owns the connection's receive side;
// do not call conn.Recv directly afterwards.
func NewLink(conn transport.Conn, cfg LinkConfig) *Link {
	l := &Link{
		cfg:     cfg.withDefaults(),
		conn:    conn,
		waiters: make(map[uint64]chan struct{}),
		seen:    make(map[string]map[uint64]bool),
		seenOrd: make(map[string][]uint64),
		recv:    make(chan *wire.Message, recvBuffer),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go l.demux()
	return l
}

// Close shuts the link and its connection down.
func (l *Link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	err := l.conn.Close()
	<-l.done
	return err
}

// Send transmits best-effort: no ack, no retry (the transport may still be
// reliable on its own, e.g. tcp).
func (l *Link) Send(m *wire.Message) error {
	m = m.Clone()
	m.ID = l.nextID.Add(1)
	return l.conn.Send(m)
}

// SendReliable transmits at-least-once: it blocks until the peer
// acknowledges or retries are exhausted.
func (l *Link) SendReliable(m *wire.Message) error {
	m = m.Clone()
	m.ID = l.nextID.Add(1)
	if m.Headers == nil {
		m.Headers = make(map[string]string, 1)
	}
	m.Headers[reliableHeader] = "1"

	ackCh := make(chan struct{}, 1)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLinkClosed
	}
	l.waiters[m.ID] = ackCh
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.waiters, m.ID)
		l.mu.Unlock()
	}()

	var lastErr error
	// One retry timer a call: re-armed per attempt, stopped when it loses.
	retry := l.cfg.Clock.Timer(l.cfg.Clock.Now().Add(l.cfg.RetryInterval))
	defer retry.Stop()
	for attempt := 0; attempt <= l.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			retry.Reset(l.cfg.Clock.Now().Add(l.cfg.RetryInterval))
		}
		err := l.conn.Send(m)
		switch {
		case err == nil:
			lastErr = nil
		case errors.Is(err, transport.ErrClosed):
			// A dead connection cannot recover by retrying.
			return fmt.Errorf("%w: %v", ErrDeliveryFailed, err)
		default:
			// Transient transmission failure (e.g. a lossy radio dropped the
			// datagram): retrying is exactly the point of this method.
			lastErr = err
		}
		if attempt > 0 {
			l.Retransmissions.Add(1)
		}
		select {
		case <-ackCh:
			return nil
		case <-retry.C():
		case <-l.done:
			return ErrLinkClosed
		}
	}
	if lastErr != nil {
		return fmt.Errorf("%w: %d attempts, last error: %v", ErrDeliveryFailed, l.cfg.MaxRetries+1, lastErr)
	}
	return fmt.Errorf("%w: %d attempts", ErrDeliveryFailed, l.cfg.MaxRetries+1)
}

// Recv blocks for the next delivered message. Reliable messages are
// acknowledged and de-duplicated before delivery, so the caller sees each at
// most once.
func (l *Link) Recv() (*wire.Message, error) {
	select {
	case m := <-l.recv:
		return m, nil
	case <-l.done:
		select {
		case m := <-l.recv:
			return m, nil
		default:
			return nil, ErrLinkClosed
		}
	}
}

func (l *Link) demux() {
	defer close(l.done)
	for {
		m, err := l.conn.Recv()
		if err != nil {
			return
		}
		switch {
		case m.Kind == wire.KindAck:
			l.mu.Lock()
			ch := l.waiters[m.Corr]
			l.mu.Unlock()
			if ch != nil {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
		default:
			if m.Headers[reliableHeader] == "1" {
				// Ack first so a blocked delivery queue cannot stall the
				// peer's retransmission loop forever. A transiently lost ack
				// is fine — the sender retransmits and we ack again; only a
				// closed connection ends the loop.
				ack := &wire.Message{Kind: wire.KindAck, Corr: m.ID}
				if err := l.conn.Send(ack); errors.Is(err, transport.ErrClosed) {
					return
				}
				if l.isDuplicate(m.Src, m.ID) {
					l.Duplicates.Add(1)
					continue
				}
			}
			select {
			case l.recv <- m:
			case <-l.stop:
				return
			}
		}
	}
}

// isDuplicate records and tests the (src, id) pair.
func (l *Link) isDuplicate(src string, id uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.seen[src]
	if m == nil {
		m = make(map[uint64]bool)
		l.seen[src] = m
	}
	if m[id] {
		return true
	}
	m[id] = true
	ord := append(l.seenOrd[src], id)
	if len(ord) > dedupeWindow {
		delete(m, ord[0])
		ord = ord[1:]
	}
	l.seenOrd[src] = ord
	return false
}

// Package interop implements the paper's interoperability feature (§3.9):
// connecting middleware domains that differ in encoding and naming, the way
// the surveyed CORBA–DCE bridges [17] and XML-based integrations [76] did.
//
// Two mechanisms ship:
//
//   - Transcode: re-encode a serialized message from one codec to another
//     (binary ↔ XML ↔ JSON) without touching its semantics,
//   - Gateway: a live bridge between two domains — it accepts connections in
//     one domain, dials the other, and forwards messages both ways while
//     applying mapping rules (topic renames, header injection) that absorb
//     naming differences between the domains.
package interop

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// Transcode re-encodes a serialized message from one codec to another. The
// decoded envelope is identical; only the representation changes.
func Transcode(data []byte, from, to wire.Codec) ([]byte, error) {
	m, err := from.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("interop: decode %s: %w", from.Name(), err)
	}
	out, err := to.Encode(m)
	if err != nil {
		return nil, fmt.Errorf("interop: encode %s: %w", to.Name(), err)
	}
	return out, nil
}

// Rule rewrites a message crossing the gateway. Returning nil drops the
// message (filtering).
type Rule func(m *wire.Message) *wire.Message

// TopicPrefixRule maps a topic prefix to another prefix ("bp/" -> "vitals/bp/"),
// leaving non-matching topics untouched.
func TopicPrefixRule(fromPrefix, toPrefix string) Rule {
	return func(m *wire.Message) *wire.Message {
		if strings.HasPrefix(m.Topic, fromPrefix) {
			m.Topic = toPrefix + strings.TrimPrefix(m.Topic, fromPrefix)
		}
		return m
	}
}

// HeaderRule injects a header on every crossing message (e.g. marking the
// origin domain).
func HeaderRule(key, value string) Rule {
	return func(m *wire.Message) *wire.Message {
		if m.Headers == nil {
			m.Headers = make(map[string]string, 1)
		}
		m.Headers[key] = value
		return m
	}
}

// DropTopicRule filters out messages whose topic matches the prefix —
// domains rarely want to export everything.
func DropTopicRule(prefix string) Rule {
	return func(m *wire.Message) *wire.Message {
		if strings.HasPrefix(m.Topic, prefix) {
			return nil
		}
		return m
	}
}

// GatewayConfig wires a gateway between two domains.
type GatewayConfig struct {
	// Listener accepts connections from domain A.
	Listener transport.Listener
	// Dial opens a connection into domain B for each accepted A-side
	// connection.
	Dial func() (transport.Conn, error)
	// AtoB rules apply to messages flowing A→B; BtoA to the reverse
	// direction. Either may be empty.
	AtoB []Rule
	BtoA []Rule
}

// Gateway bridges two middleware domains.
type Gateway struct {
	cfg    GatewayConfig
	served transport.Served

	// Forwarded counts messages relayed per direction; Droppedcounts
	// messages filtered by rules.
	forwardedAB atomic.Int64
	forwardedBA atomic.Int64
	dropped     atomic.Int64
}

// NewGateway starts bridging.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Listener == nil || cfg.Dial == nil {
		return nil, errors.New("interop: gateway needs Listener and Dial")
	}
	g := &Gateway{cfg: cfg}
	g.served.Serve(cfg.Listener, g.bridge)
	return g, nil
}

// Forwarded reports messages relayed in each direction.
func (g *Gateway) Forwarded() (aToB, bToA int64) {
	return g.forwardedAB.Load(), g.forwardedBA.Load()
}

// Dropped reports messages filtered by rules.
func (g *Gateway) Dropped() int64 { return g.dropped.Load() }

// Close stops the gateway and all bridged connections.
func (g *Gateway) Close() error {
	g.served.Close()
	return nil
}

// bridge serves one A-side connection: it dials B, pumps B→A on a goroutine
// of its own and A→B itself. A failed dial closes the A side.
func (g *Gateway) bridge(aConn transport.Conn) {
	bConn, err := g.cfg.Dial()
	if err != nil {
		return
	}
	if g.served.Go(func() { g.pump(bConn, aConn, g.cfg.BtoA, &g.forwardedBA) }, bConn) {
		g.pump(aConn, bConn, g.cfg.AtoB, &g.forwardedAB)
	}
}

// pump copies messages src→dst applying rules. Its caller closes src when it
// returns; pump closes dst, so both sides go down on the first error and the
// peer notices the bridge is gone.
func (g *Gateway) pump(src, dst transport.Conn, rules []Rule, counter *atomic.Int64) {
	defer dst.Close()
	for {
		m, err := src.Recv()
		if err != nil {
			return
		}
		for _, rule := range rules {
			m = rule(m)
			if m == nil {
				break
			}
		}
		if m == nil {
			g.dropped.Add(1)
			continue
		}
		if err := dst.Send(m); err != nil {
			return
		}
		counter.Add(1)
	}
}

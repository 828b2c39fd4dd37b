package experiments

import (
	"fmt"
	"time"

	"ndsm/internal/interop"
	"ndsm/internal/stats"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

func e10Message() *wire.Message {
	return &wire.Message{
		ID:       42,
		Kind:     wire.KindRequest,
		Src:      "node-a",
		Dst:      "node-b",
		Topic:    "sensors/bloodpressure",
		Priority: 3,
		Deadline: time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC),
		Headers:  map[string]string{"trace": "t-1", "auth": "tok"},
		Payload:  []byte("42|120.2500|mmHg"),
	}
}

// e10 compares the codecs (size, encode/decode cost), measures transcoding,
// and quantifies the latency a domain gateway adds to a request/reply.
func e10(quick bool) (Result, error) {
	iterations := pick(quick, 500, 5000) // per codec measurement
	m := e10Message()
	codecs := []wire.Codec{wire.Binary{}, wire.JSON{}, wire.XML{}}

	codecTable := stats.NewTable("E10: codec comparison",
		"codec", "bytes", "encode µs", "decode µs")
	for _, c := range codecs {
		data, err := c.Encode(m)
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		for i := 0; i < iterations; i++ {
			if _, err := c.Encode(m); err != nil {
				return Result{}, err
			}
		}
		encUS := float64(time.Since(start).Nanoseconds()) / float64(iterations) / 1e3
		start = time.Now()
		for i := 0; i < iterations; i++ {
			if _, err := c.Decode(data); err != nil {
				return Result{}, err
			}
		}
		decUS := float64(time.Since(start).Nanoseconds()) / float64(iterations) / 1e3
		codecTable.AddRow(c.Name(), len(data), encUS, decUS)
	}

	bridgeTable := stats.NewTable("E10b: transcoding", "direction", "µs/msg")
	pairs := []struct{ from, to wire.Codec }{
		{wire.Binary{}, wire.XML{}},
		{wire.XML{}, wire.Binary{}},
		{wire.JSON{}, wire.XML{}},
	}
	for _, p := range pairs {
		data, err := p.from.Encode(m)
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		for i := 0; i < iterations; i++ {
			if _, err := interop.Transcode(data, p.from, p.to); err != nil {
				return Result{}, err
			}
		}
		us := float64(time.Since(start).Nanoseconds()) / float64(iterations) / 1e3
		bridgeTable.AddRow(fmt.Sprintf("%s -> %s", p.from.Name(), p.to.Name()), us)
	}

	gwTable, err := e10Gateway(pick(quick, 200, 1000))
	if err != nil {
		return Result{}, err
	}

	return Result{
		ID:     "E10",
		Title:  "Interoperability: codecs, transcoding, gateway overhead",
		Tables: []*stats.Table{codecTable, bridgeTable, gwTable},
		Notes: []string{
			"Expected shape: binary smallest and fastest, XML largest and slowest;",
			"the gateway adds one extra hop of latency to each direction.",
		},
	}, nil
}

// e10Gateway measures request/reply RTT direct vs through a domain gateway.
func e10Gateway(ops int) (*stats.Table, error) {
	fabricA := transport.NewFabric()
	fabricB := transport.NewFabric()
	trA := transport.NewMem(fabricA)
	trB := transport.NewMem(fabricB)
	defer trA.Close() //nolint:errcheck
	defer trB.Close() //nolint:errcheck

	// Echo service in domain B.
	lB, err := trB.Listen("svc")
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			conn, err := lB.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					if err := conn.Send(&wire.Message{Kind: wire.KindReply, Corr: m.ID, Payload: m.Payload}); err != nil {
						return
					}
				}
			}()
		}
	}()

	rtt := func(dial func() (transport.Conn, error)) (float64, error) {
		conn, err := dial()
		if err != nil {
			return 0, err
		}
		defer conn.Close() //nolint:errcheck
		payload := make([]byte, 64)
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := conn.Send(&wire.Message{ID: uint64(i + 1), Kind: wire.KindRequest, Payload: payload}); err != nil {
				return 0, err
			}
			if _, err := conn.Recv(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(ops) / 1e3, nil
	}

	direct, err := rtt(func() (transport.Conn, error) { return trB.Dial("svc") })
	if err != nil {
		return nil, err
	}

	lA, err := trA.Listen("gw")
	if err != nil {
		return nil, err
	}
	gw, err := interop.NewGateway(interop.GatewayConfig{
		Listener: lA,
		Dial:     func() (transport.Conn, error) { return trB.Dial("svc") },
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close() //nolint:errcheck
	bridged, err := rtt(func() (transport.Conn, error) { return trA.Dial("gw") })
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("E10c: gateway overhead", "path", "RTT µs")
	t.AddRow("direct (same domain)", direct)
	t.AddRow("via gateway (cross domain)", bridged)
	return t, nil
}

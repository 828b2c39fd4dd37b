package experiments

import (
	"fmt"
	"time"

	"ndsm/internal/interact/mq"
	"ndsm/internal/interact/pubsub"
	"ndsm/internal/interact/rpc"
	"ndsm/internal/interact/tuplespace"
	"ndsm/internal/stats"
	"ndsm/internal/transport"
)

// e7 measures the four interaction styles of §3.1/§3.6 on an identical
// round-trip workload over the mem transport: client-server RPC, message
// queue, publish-subscribe, and tuple space.
func e7(quick bool) (Result, error) {
	ops := pick(quick, 200, 2000) // per style and payload size
	table := stats.NewTable("E7: interaction styles",
		"style", "payload", "ops/sec", "mean µs/op")
	type styleFn func(size, ops int) (time.Duration, error)
	styles := []struct {
		name string
		run  styleFn
	}{
		{"rpc (client-server)", e7RPC},
		{"message queue", e7MQ},
		{"publish-subscribe", e7PubSub},
		{"tuple space", e7Tuple},
	}
	for _, size := range pick(quick, []int{64}, []int{64, 4096}) {
		for _, st := range styles {
			elapsed, err := st.run(size, ops)
			if err != nil {
				return Result{}, fmt.Errorf("E7 %s size=%d: %w", st.name, size, err)
			}
			perOp := elapsed / time.Duration(ops)
			// The payload is a name ("64 B"), not a number: style and payload
			// together tell one row from another in a baseline file.
			table.AddRow(st.name, fmt.Sprintf("%d B", size),
				float64(ops)/elapsed.Seconds(),
				float64(perOp.Nanoseconds())/1e3)
		}
	}
	return Result{
		ID:     "E7",
		Title:  "Interaction styles: throughput and latency",
		Tables: []*stats.Table{table},
		Notes: []string{
			"Same ping-pong workload per style; differences reflect protocol",
			"round trips (RPC: 1 RTT; MQ: 2 RTTs — push + pop; pub/sub: publish",
			"ack + event; tuple space: out ack + in).",
		},
	}, nil
}

func e7RPC(size, ops int) (time.Duration, error) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("svc")
	if err != nil {
		return 0, err
	}
	srv := rpc.NewServer(l)
	defer srv.Close() //nolint:errcheck
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	cli, err := rpc.Dial(transport.NewMem(fabric), "svc", nil)
	if err != nil {
		return 0, err
	}
	defer cli.Close() //nolint:errcheck

	payload := make([]byte, size)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := cli.Call("echo", payload, 10*time.Second); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func e7MQ(size, ops int) (time.Duration, error) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("broker")
	if err != nil {
		return 0, err
	}
	b := mq.NewBroker(l, 0, nil)
	defer b.Close() //nolint:errcheck
	cli, err := mq.Dial(transport.NewMem(fabric), "broker")
	if err != nil {
		return 0, err
	}
	defer cli.Close() //nolint:errcheck

	payload := make([]byte, size)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := cli.Push("q", payload); err != nil {
			return 0, err
		}
		if _, err := cli.Pop("q", time.Second); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func e7PubSub(size, ops int) (time.Duration, error) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("bus")
	if err != nil {
		return 0, err
	}
	b := pubsub.NewBroker(l)
	defer b.Close() //nolint:errcheck
	cli, err := pubsub.Dial(transport.NewMem(fabric), "bus")
	if err != nil {
		return 0, err
	}
	defer cli.Close() //nolint:errcheck
	events, err := cli.Subscribe("t")
	if err != nil {
		return 0, err
	}

	payload := make([]byte, size)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := cli.Publish("t", payload); err != nil {
			return 0, err
		}
		select {
		case <-events:
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("event %d never arrived", i)
		}
	}
	return time.Since(start), nil
}

func e7Tuple(size, ops int) (time.Duration, error) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("space")
	if err != nil {
		return 0, err
	}
	srv := tuplespace.NewServer(tuplespace.NewSpace(nil), l)
	defer srv.Close() //nolint:errcheck
	cli, err := tuplespace.Dial(transport.NewMem(fabric), "space")
	if err != nil {
		return 0, err
	}
	defer cli.Close() //nolint:errcheck

	value := string(make([]byte, size))
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := cli.Out(tuplespace.Tuple{"k", value}); err != nil {
			return 0, err
		}
		if _, err := cli.In(tuplespace.Tuple{"k", "*"}, time.Second); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

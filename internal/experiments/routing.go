package experiments

import (
	"fmt"
	"time"

	"ndsm/internal/netsim"
	"ndsm/internal/routing"
	"ndsm/internal/stats"
	"ndsm/internal/trace"
)

// e5 compares the four routing strategies on the same corner-to-corner
// workload: delivery ratio, radio transmissions per delivered packet, energy
// per delivered packet, and control traffic.
func e5(quick bool, tr *trace.Tracer) (Result, error) {
	nodes, packets := pick(quick, 16, 49), pick(quick, 5, 20)
	table := stats.NewTable("E5: routing strategies",
		"strategy", "delivered", "tx/delivered", "energy mJ/delivered", "control msgs")

	type strat struct {
		name    string
		factory func() routing.Strategy
		// converge rounds before measuring (proactive protocols only).
		converge int
	}
	strategies := []strat{
		{"flooding", func() routing.Strategy { return routing.Flooding{} }, 0},
		{"dv-hop", func() routing.Strategy { return routing.NewDistanceVector(routing.HopCost) }, 14},
		{"dv-energy", func() routing.Strategy { return routing.NewDistanceVector(routing.EnergyCost(128, 0.05)) }, 14},
		{"geographic", func() routing.Strategy { return routing.Geographic{} }, 0},
	}
	for _, st := range strategies {
		row, err := e5Run(nodes, packets, st.factory, st.converge, tr)
		if err != nil {
			return Result{}, fmt.Errorf("E5 %s: %w", st.name, err)
		}
		table.AddRow(st.name, fmt.Sprintf("%d/%d", row.delivered, packets),
			row.txPerDelivered, row.energyPerDelivered*1e3, row.controlMsgs)
	}
	return Result{
		ID:     "E5",
		Title:  "Routing: delivery, transmissions, and energy per strategy",
		Tables: []*stats.Table{table},
		Notes: []string{
			"Flooding delivers everything but transmits O(N) per packet;",
			"DV and geographic unicast pay ~path-length transmissions;",
			"DV pays convergence control traffic, geographic pays none.",
		},
	}, nil
}

type e5Row struct {
	delivered          int
	txPerDelivered     float64
	energyPerDelivered float64
	controlMsgs        int64
}

// e5Run sends packets corner to corner across a grid of nodes, each
// packet 128 bytes.
func e5Run(nodes, packets int, factory func() routing.Strategy, converge int, tr *trace.Tracer) (e5Row, error) {
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true, Tracer: tr})
	defer net.Close()
	ids, err := netsim.GridField(net, "n", nodes, 10)
	if err != nil {
		return e5Row{}, err
	}
	mesh, err := routing.NewMesh(net, factory)
	if err != nil {
		return e5Row{}, err
	}
	defer mesh.Close()

	if converge > 0 {
		mesh.Converge(converge)
	}
	controlMsgs := net.Counters()["sent"]
	controlEnergy := net.TotalConsumed()

	src, dst := ids[0], ids[len(ids)-1]
	rx, err := mesh.Router(dst).Recv(dst)
	if err != nil {
		return e5Row{}, err
	}
	payload := make([]byte, 128)
	for i := 0; i < packets; i++ {
		_ = mesh.Router(src).Send(src, dst, payload) // one with no route is not delivered
	}
	// Once the mesh settles, every delivery is in dst's queue.
	mesh.Settle(10 * time.Second)
	delivered := len(rx)

	dataMsgs := net.Counters()["sent"] - controlMsgs
	dataEnergy := net.TotalConsumed() - controlEnergy
	row := e5Row{delivered: delivered, controlMsgs: controlMsgs}
	if delivered > 0 {
		row.txPerDelivered = float64(dataMsgs) / float64(delivered)
		row.energyPerDelivered = dataEnergy / float64(delivered)
	}
	return row, nil
}

// e5Ablation compares the DV metric choice (hop vs energy) where they must
// disagree: the shortest path runs through a nearly-drained relay, a longer
// detour through healthy ones. Hop count takes the short path and finishes
// the weak node off; the energy metric pays the extra hop and spares it.
func e5Ablation(tr *trace.Tracer) (Result, error) {
	table := stats.NewTable("E5a: DV metric ablation (drained shortcut)",
		"metric", "relay used", "weak node residual J")
	for _, metric := range []string{"hop", "energy"} {
		relay, residual, err := e5Ablate(metric, tr)
		if err != nil {
			return Result{}, err
		}
		table.AddRow(metric, relay, residual)
	}
	return Result{
		ID:     "E5a",
		Title:  "Ablation: routing metric (hop count vs residual-energy aware)",
		Tables: []*stats.Table{table},
	}, nil
}

func e5Ablate(metric string, tr *trace.Tracer) (relayUsed string, weakResidual float64, err error) {
	net := netsim.New(netsim.Config{Range: 12, Tracer: tr})
	defer net.Close()
	add := func(id netsim.NodeID, pos netsim.Position, energy float64) error {
		return net.AddNodeEnergy(id, pos, energy)
	}
	// Short path: src -> weak -> dst (2 hops, weak is nearly drained).
	// Detour:    src -> s1 -> s2 -> dst (3 hops, all healthy).
	if err := add("src", netsim.Position{X: 0, Y: 0}, 1); err != nil {
		return "", 0, err
	}
	if err := add("weak", netsim.Position{X: 10, Y: 0}, 0.002); err != nil {
		return "", 0, err
	}
	if err := add("s1", netsim.Position{X: 5, Y: 9}, 1); err != nil {
		return "", 0, err
	}
	if err := add("s2", netsim.Position{X: 15, Y: 9}, 1); err != nil {
		return "", 0, err
	}
	if err := add("dst", netsim.Position{X: 20, Y: 0}, 1); err != nil {
		return "", 0, err
	}

	cost := routing.HopCost
	if metric == "energy" {
		// Penalty weight large enough that a drained next hop outweighs an
		// extra transmission.
		cost = routing.EnergyCost(128, 0.5)
	}
	mesh, err := routing.NewMesh(net, func() routing.Strategy { return routing.NewDistanceVector(cost) })
	if err != nil {
		return "", 0, err
	}
	defer mesh.Close()
	mesh.Converge(6)

	weakBefore, _ := net.Consumed("weak")
	detourBefore, _ := net.Consumed("s1")
	for i := 0; i < 10; i++ {
		if err := mesh.Router("src").Send("src", "dst", make([]byte, 128)); err != nil {
			break
		}
		mesh.Settle(2 * time.Second)
	}
	weakAfter, _ := net.Consumed("weak")
	detourAfter, _ := net.Consumed("s1")
	relayUsed = "detour (s1,s2)"
	if weakAfter-weakBefore > detourAfter-detourBefore {
		relayUsed = "weak"
	}
	residual, _ := net.Energy("weak")
	return relayUsed, residual, nil
}

// Sensornet: MiLAN (§4 of the paper) configuring a simulated wireless
// sensor network.
//
// A patient-monitoring application declares, per application state, the QoS
// it needs for each variable (blood pressure, heart rate); eight battery-
// powered sensors declare what they can contribute. MiLAN selects, round by
// round, the feasible sensor set that maximizes network lifetime, rotating
// sets as batteries drain — and the network outlives the all-sensors-on
// baseline by a wide margin. A mid-run switch to the "emergency" state shows
// requirements-driven reconfiguration.
//
// Run:
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"log"
	"sort"

	"ndsm/milan"
	"ndsm/simnet"
)

const (
	varBP milan.Variable = "blood-pressure"
	varHR milan.Variable = "heart-rate"

	stNormal    milan.State = "normal"
	stEmergency milan.State = "emergency"
)

// buildSystem declares the application QoS graph and the sensor inventory.
func buildSystem() *milan.System {
	sys := &milan.System{
		App: milan.AppSpec{
			Variables: []milan.Variable{varBP, varHR},
			Required: map[milan.State]map[milan.Variable]float64{
				stNormal:    {varBP: 0.7, varHR: 0.7},
				stEmergency: {varBP: 0.95, varHR: 0.9},
			},
		},
		Sink:  "basestation",
		Range: 30,
	}
	// Four BP sensors and four HR sensors of varying individual quality.
	qualities := []float64{0.85, 0.80, 0.75, 0.72}
	for i, q := range qualities {
		sys.Sensors = append(sys.Sensors,
			milan.Sensor{
				Node:        simnet.NodeID(fmt.Sprintf("bp-%d", i)),
				QoS:         map[milan.Variable]float64{varBP: q},
				SampleBytes: 100,
			},
			milan.Sensor{
				Node:        simnet.NodeID(fmt.Sprintf("hr-%d", i)),
				QoS:         map[milan.Variable]float64{varHR: q},
				SampleBytes: 100,
			})
	}
	return sys
}

// buildField places the sensors on the radio field with small batteries so
// lifetimes stay demo-sized.
func buildField(sys *milan.System) (*simnet.Network, error) {
	net := simnet.New(simnet.Config{Range: sys.Range})
	if err := net.AddNodeEnergy(sys.Sink, simnet.Position{X: 0, Y: 0}, 1e6); err != nil {
		return nil, err
	}
	for i, sn := range sys.Sensors {
		pos := simnet.Position{X: 8 + float64(i%4)*4, Y: float64(i) * 2}
		if err := net.AddNodeEnergy(sn.Node, pos, 0.01); err != nil {
			return nil, err
		}
	}
	return net, nil
}

func lifetimeWith(selector milan.Selector) (int, milan.Stats, error) {
	sys := buildSystem()
	net, err := buildField(sys)
	if err != nil {
		return 0, milan.Stats{}, err
	}
	defer net.Close()
	mgr, err := milan.NewManager(sys, net, selector, stNormal)
	if err != nil {
		return 0, milan.Stats{}, err
	}
	life, err := mgr.Run(10_000_000)
	return life, mgr.Stats(), err
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- the headline comparison ---
	fmt.Println("network lifetime (reporting rounds until the app's QoS is infeasible):")
	for _, sel := range []milan.Selector{milan.AllSensors{}, milan.Greedy{}, milan.Exhaustive{}} {
		life, stats, err := lifetimeWith(sel)
		if err != nil {
			return err
		}
		fmt.Printf("  %-18s lifetime=%-6d reconfigs=%-3d samples delivered=%d\n",
			sel.Name(), life, stats.Reconfigs, stats.Delivered)
	}

	// --- state-driven reconfiguration ---
	sys := buildSystem()
	net, err := buildField(sys)
	if err != nil {
		return err
	}
	defer net.Close()
	mgr, err := milan.NewManager(sys, net, milan.Exhaustive{}, stNormal)
	if err != nil {
		return err
	}
	fmt.Printf("\nstate %q: active sensors = %v\n", stNormal, mgr.Active())
	if err := mgr.SetState(stEmergency); err != nil {
		return err
	}
	fmt.Printf("state %q: active sensors = %v\n", stEmergency, mgr.Active())
	fmt.Println("  (emergency QoS forces redundant sensors on: combined quality")
	fmt.Println("   1-(1-q1)(1-q2)... must reach 0.95 for BP and 0.90 for HR)")

	// --- network roles: MiLAN's configuration output (§4) ---
	fmt.Println("\nnetwork configuration (roles):")
	byRole := map[milan.Role][]string{}
	for node, role := range mgr.Roles() {
		byRole[role] = append(byRole[role], string(node))
	}
	for _, role := range []milan.Role{milan.RoleSink, milan.RoleSource, milan.RoleRouter, milan.RoleSleeper} {
		nodes := byRole[role]
		sort.Strings(nodes)
		fmt.Printf("  %-8s %v\n", role, nodes)
	}
	return nil
}

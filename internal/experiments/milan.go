package experiments

import (
	"fmt"
	"math/rand"

	"ndsm/internal/milan"
	"ndsm/internal/netsim"
	"ndsm/internal/stats"
)

const (
	varBP milan.Variable = "blood-pressure"
	varHR milan.Variable = "heart-rate"

	stateNormal milan.State = "normal"

	// e6Seed fixes sensor placement and qualities.
	e6Seed = 11
	// e6Energy is each sensor's initial energy in joules, small for fast
	// runs.
	e6Energy = 0.02
)

// e6System builds a two-variable monitoring deployment with redundant
// sensors of random quality scattered around the sink, perVariable of them
// for each variable.
func e6System(perVariable int, rng *rand.Rand) *milan.System {
	sys := &milan.System{
		App: milan.AppSpec{
			Variables: []milan.Variable{varBP, varHR},
			Required: map[milan.State]map[milan.Variable]float64{
				stateNormal: {varBP: 0.7, varHR: 0.7},
			},
		},
		Sink:    "sink",
		SinkPos: netsim.Position{X: 0, Y: 0},
		Range:   30,
	}
	for v, variable := range []milan.Variable{varBP, varHR} {
		for i := 0; i < perVariable; i++ {
			sys.Sensors = append(sys.Sensors, milan.Sensor{
				Node:        netsim.NodeID(fmt.Sprintf("s%d-%d", v, i)),
				QoS:         map[milan.Variable]float64{variable: 0.72 + rng.Float64()*0.2},
				SampleBytes: 100,
			})
		}
	}
	return sys
}

func e6Field(sys *milan.System, energy float64, rng *rand.Rand) (*netsim.Network, error) {
	net := netsim.New(netsim.Config{Range: sys.Range})
	if err := net.AddNodeEnergy(sys.Sink, sys.SinkPos, 1e6); err != nil {
		net.Close()
		return nil, err
	}
	for _, sn := range sys.Sensors {
		pos := netsim.Position{X: 5 + rng.Float64()*20, Y: rng.Float64() * 20}
		if err := net.AddNodeEnergy(sn.Node, pos, energy); err != nil {
			net.Close()
			return nil, err
		}
	}
	return net, nil
}

// e6 is the headline reproduction: network lifetime under MiLAN's
// lifetime-optimal feasible-set selection versus the baselines.
func e6(quick bool) (Result, error) {
	perVariable, energy := pick(quick, 2, 4), pick(quick, 0.005, e6Energy)
	table := stats.NewTable("E6: MiLAN network lifetime",
		"selector", "lifetime rounds", "vs all-sensors", "reconfigs", "delivered", "first death round")

	type runResult struct {
		name     string
		lifetime int
		stats    milan.Stats
	}
	var results []runResult
	selectors := []milan.Selector{
		milan.AllSensors{},
		milan.RandomFeasible{Rng: rand.New(rand.NewSource(e6Seed + 1))},
		milan.Greedy{},
		milan.Exhaustive{},
	}
	for _, sel := range selectors {
		rng := rand.New(rand.NewSource(e6Seed)) // identical deployments
		sys := e6System(perVariable, rng)
		net, err := e6Field(sys, energy, rng)
		if err != nil {
			return Result{}, err
		}
		mgr, err := milan.NewManager(sys, net, sel, stateNormal)
		if err != nil {
			net.Close()
			return Result{}, fmt.Errorf("E6 %s: %w", sel.Name(), err)
		}
		lifetime, err := mgr.Run(2000000) // rounds cap
		if err != nil {
			net.Close()
			return Result{}, fmt.Errorf("E6 %s run: %w", sel.Name(), err)
		}
		results = append(results, runResult{name: sel.Name(), lifetime: lifetime, stats: mgr.Stats()})
		net.Close()
	}

	baseline := results[0].lifetime // all-sensors
	for _, r := range results {
		speedup := 0.0
		if baseline > 0 {
			speedup = float64(r.lifetime) / float64(baseline)
		}
		table.AddRow(r.name, r.lifetime, fmt.Sprintf("%.2fx", speedup),
			r.stats.Reconfigs, r.stats.Delivered, r.stats.FirstDeath)
	}
	return Result{
		ID:     "E6",
		Title:  "MiLAN: application-lifetime optimization vs baselines (paper §4)",
		Tables: []*stats.Table{table},
		Notes: []string{
			"Lifetime = reporting rounds until no feasible sensor set remains.",
			"Expected shape: exhaustive ≥ greedy > random-feasible > all-sensors,",
			"because MiLAN activates minimal sets and rotates them as batteries drain.",
		},
	}, nil
}

// e6Ablation compares MiLAN's exhaustive search against the greedy heuristic
// as the sensor count grows (the cost side of the design choice).
func e6Ablation(quick bool) (Result, error) {
	table := stats.NewTable("E6a: selector ablation",
		"sensors", "selector", "predicted lifetime", "feasible")
	for spv := 2; spv <= pick(quick, 4, 6); spv += 2 {
		rng := rand.New(rand.NewSource(e6Seed))
		sys := e6System(spv, rng)
		energies := make(milan.Energies)
		positions := make(map[netsim.NodeID]netsim.Position)
		for _, sn := range sys.Sensors {
			energies[sn.Node] = e6Energy
			positions[sn.Node] = netsim.Position{X: 5 + rng.Float64()*20, Y: rng.Float64() * 20}
		}
		for _, sel := range []milan.Selector{milan.Exhaustive{}, milan.Greedy{}} {
			set, err := sel.Select(sys, stateNormal, energies, positions)
			feasible := err == nil
			life := 0.0
			if feasible {
				life = sys.PredictedLifetime(set, energies, positions)
			}
			table.AddRow(2*spv, sel.Name(), life, feasible)
		}
	}
	return Result{
		ID:     "E6a",
		Title:  "Ablation: exhaustive vs greedy feasible-set search",
		Tables: []*stats.Table{table},
	}, nil
}

// Package milan implements MiLAN — Middleware Linking Applications and
// Networks (§4 of the paper; Murphy & Heinzelman, TR-795) — the paper's
// primary system contribution.
//
// MiLAN inverts the usual middleware layering: instead of sitting above the
// network protocols, it *configures the network itself* from application
// requirements. The application declares, per application state, the QoS it
// requires for each variable of interest; each sensor declares the QoS it
// can contribute to each variable. MiLAN then
//
//  1. computes the *feasible sets* of sensors whose combined QoS meets every
//     variable's requirement in the current state,
//  2. selects among them the set that maximizes predicted network lifetime
//     (the application-performance vs network-cost tradeoff), and
//  3. configures the network: selected sensors become sources, nodes on
//     their routes become routers, everyone else sleeps.
//
// The runtime (Manager) re-runs this loop as sensors drain and die, so the
// application keeps its required QoS for as long as any feasible set exists.
package milan

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ndsm/internal/netsim"
)

// Variable names an application-level quantity of interest (e.g.
// "blood-pressure").
type Variable string

// State names an application state; QoS requirements differ per state (a
// patient in "emergency" needs more reliable readings than in "normal").
type State string

// AppSpec is the application's declared QoS needs.
type AppSpec struct {
	// Variables the application monitors.
	Variables []Variable
	// Required maps state -> variable -> minimum acceptable combined QoS in
	// [0,1].
	Required map[State]map[Variable]float64
}

// Validate checks the spec.
func (a *AppSpec) Validate() error {
	if a == nil {
		return errors.New("milan: nil app spec")
	}
	if len(a.Variables) == 0 {
		return errors.New("milan: app spec needs variables")
	}
	if len(a.Required) == 0 {
		return errors.New("milan: app spec needs at least one state")
	}
	for state, reqs := range a.Required {
		for v, q := range reqs {
			if q < 0 || q > 1 {
				return fmt.Errorf("milan: state %s variable %s requirement %v outside [0,1]", state, v, q)
			}
		}
	}
	return nil
}

// Sensor describes one sensor node's capabilities.
type Sensor struct {
	// Node is the sensor's network identity.
	Node netsim.NodeID
	// QoS maps variable -> the quality this sensor alone contributes, in
	// [0,1] (0 / absent: unrelated to the variable).
	QoS map[Variable]float64
	// SampleBytes is the payload this sensor transmits per reporting round.
	SampleBytes int
}

// Combine merges the per-sensor qualities for one variable into the set's
// combined quality.
type Combine func(qs []float64) float64

// CombineProb treats sensors as independent evidence: 1-∏(1-q). Two 0.7
// sensors give 0.91 — redundancy increases reliability, which is what makes
// multi-sensor feasible sets interesting.
func CombineProb(qs []float64) float64 {
	p := 1.0
	for _, q := range qs {
		p *= 1 - q
	}
	return 1 - p
}

// CombineMax takes the best single sensor: no redundancy benefit.
func CombineMax(qs []float64) float64 {
	best := 0.0
	for _, q := range qs {
		if q > best {
			best = q
		}
	}
	return best
}

// System is the static MiLAN problem: app spec + sensor inventory + combine
// rule.
type System struct {
	App     AppSpec
	Sensors []Sensor
	// Combine defaults to CombineProb.
	Combine Combine
	// Sink is the node sensor data flows to. Where it sits comes from the
	// network, for forwarding and energy estimation alike.
	Sink netsim.NodeID
	// Range is the radio range for hop estimation (default 25). Energy
	// follows netsim.TxEnergy.
	Range float64
}

// Validate checks the system.
func (s *System) Validate() error {
	if err := s.App.Validate(); err != nil {
		return err
	}
	if len(s.Sensors) == 0 {
		return errors.New("milan: no sensors")
	}
	seen := make(map[netsim.NodeID]bool, len(s.Sensors))
	for _, sn := range s.Sensors {
		if sn.Node == "" {
			return errors.New("milan: sensor without node id")
		}
		if seen[sn.Node] {
			return fmt.Errorf("milan: duplicate sensor %s", sn.Node)
		}
		seen[sn.Node] = true
		for v, q := range sn.QoS {
			if q < 0 || q > 1 {
				return fmt.Errorf("milan: sensor %s variable %s QoS %v outside [0,1]", sn.Node, v, q)
			}
		}
	}
	return nil
}

func (s *System) combine() Combine {
	if s.Combine != nil {
		return s.Combine
	}
	return CombineProb
}

func (s *System) radioRange() float64 {
	if s.Range > 0 {
		return s.Range
	}
	return 25
}

// SetQuality computes the combined quality the sensor subset (indices into
// s.Sensors) provides for a variable.
func (s *System) SetQuality(set []int, v Variable) float64 {
	var qs []float64
	for _, i := range set {
		if q := s.Sensors[i].QoS[v]; q > 0 {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		return 0
	}
	return s.combine()(qs)
}

// Feasible reports whether the subset meets every variable requirement of
// the state.
func (s *System) Feasible(set []int, state State) bool {
	reqs, ok := s.App.Required[state]
	if !ok {
		return false
	}
	const eps = 1e-9 // tolerate float error in combined products
	for v, required := range reqs {
		if required <= 0 {
			continue
		}
		if s.SetQuality(set, v) < required-eps {
			return false
		}
	}
	return true
}

// Energies reports per-sensor residual energy; the selectors use it to
// predict lifetime.
type Energies map[netsim.NodeID]float64

// roundCost estimates sensor i's energy per reporting round: transmit
// SampleBytes toward the sink over ceil(dist/range) hops of at most range
// meters each. A multi-hop path also costs the relays, but the *sensor's*
// drain — which bounds its own lifetime — is the first hop. Without the
// sensor's or the sink's position the hop is a full range.
func (s *System) roundCost(i int, positions map[netsim.NodeID]netsim.Position) float64 {
	sn := s.Sensors[i]
	pos, ok := positions[sn.Node]
	sink, sinkOK := positions[s.Sink]
	if !ok || !sinkOK {
		return netsim.TxEnergy(sn.SampleBytes, s.radioRange())
	}
	hop := math.Min(pos.Distance(sink), s.radioRange())
	return netsim.TxEnergy(sn.SampleBytes, hop)
}

// PredictedLifetime estimates how many reporting rounds the subset survives:
// the minimum over members of residual energy / per-round cost.
func (s *System) PredictedLifetime(set []int, energies Energies, positions map[netsim.NodeID]netsim.Position) float64 {
	if len(set) == 0 {
		return 0
	}
	lifetime := math.Inf(1)
	for _, i := range set {
		cost := s.roundCost(i, positions)
		if cost <= 0 {
			continue
		}
		e := energies[s.Sensors[i].Node]
		if rounds := e / cost; rounds < lifetime {
			lifetime = rounds
		}
	}
	if math.IsInf(lifetime, 1) {
		return 0
	}
	return lifetime
}

// aliveIndices returns the indices of sensors with positive energy.
func (s *System) aliveIndices(energies Energies) []int {
	var out []int
	for i, sn := range s.Sensors {
		if energies[sn.Node] > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Selector picks the operating sensor set for a state.
type Selector interface {
	// Name identifies the selector for reporting.
	Name() string
	// Select returns sensor indices to activate, or an error when no
	// feasible set exists among alive sensors. positions holds the sensors'
	// and the sink's.
	Select(s *System, state State, energies Energies, positions map[netsim.NodeID]netsim.Position) ([]int, error)
}

// ErrInfeasible reports that no alive sensor subset meets the state's QoS.
var ErrInfeasible = errors.New("milan: no feasible sensor set")

// Exhaustive is MiLAN's optimal selector: enumerate all subsets of alive
// sensors, keep the feasible ones, pick the one with the longest predicted
// lifetime (ties: fewer sensors, then higher total quality). Exponential —
// fine for the ≤20-sensor deployments MiLAN targets; Greedy is the scalable
// ablation.
type Exhaustive struct{}

// Name implements Selector.
func (Exhaustive) Name() string { return "milan-exhaustive" }

// Select implements Selector.
func (Exhaustive) Select(s *System, state State, energies Energies, positions map[netsim.NodeID]netsim.Position) ([]int, error) {
	alive := s.aliveIndices(energies)
	n := len(alive)
	if n == 0 {
		return nil, ErrInfeasible
	}
	if n > 24 {
		return nil, fmt.Errorf("milan: %d sensors exceed exhaustive search limit (use Greedy)", n)
	}
	var best []int
	bestLife := -1.0
	for mask := 1; mask < 1<<n; mask++ {
		set := make([]int, 0, n)
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				set = append(set, alive[b])
			}
		}
		if !s.Feasible(set, state) {
			continue
		}
		life := s.PredictedLifetime(set, energies, positions)
		if life > bestLife || (life == bestLife && best != nil && len(set) < len(best)) {
			best = set
			bestLife = life
		}
	}
	if best == nil {
		return nil, ErrInfeasible
	}
	sort.Ints(best)
	return best, nil
}

// Greedy is the scalable heuristic: repeatedly add the sensor that most
// improves the worst-satisfied variable, preferring sensors with long
// individual lifetimes, until feasible.
type Greedy struct{}

// Name implements Selector.
func (Greedy) Name() string { return "milan-greedy" }

// Select implements Selector.
func (Greedy) Select(s *System, state State, energies Energies, positions map[netsim.NodeID]netsim.Position) ([]int, error) {
	alive := s.aliveIndices(energies)
	if len(alive) == 0 {
		return nil, ErrInfeasible
	}
	reqs := s.App.Required[state]
	var set []int
	inSet := make(map[int]bool)
	for !s.Feasible(set, state) {
		// Find the most violated variable.
		worstVar := Variable("")
		worstGap := 0.0
		for v, required := range reqs {
			if gap := required - s.SetQuality(set, v); gap > worstGap {
				worstGap = gap
				worstVar = v
			}
		}
		if worstVar == "" {
			break // feasible (or no positive requirements)
		}
		// Add the best candidate for that variable: highest contribution,
		// ties by individual predicted lifetime.
		bestIdx := -1
		bestQ := 0.0
		bestLife := -1.0
		for _, i := range alive {
			if inSet[i] {
				continue
			}
			q := s.Sensors[i].QoS[worstVar]
			if q <= 0 {
				continue
			}
			life := s.PredictedLifetime([]int{i}, energies, positions)
			if q > bestQ || (q == bestQ && life > bestLife) {
				bestIdx, bestQ, bestLife = i, q, life
			}
		}
		if bestIdx < 0 {
			return nil, ErrInfeasible
		}
		set = append(set, bestIdx)
		inSet[bestIdx] = true
	}
	if !s.Feasible(set, state) {
		return nil, ErrInfeasible
	}
	sort.Ints(set)
	return set, nil
}

// AllSensors is the "no middleware" baseline: every alive sensor transmits.
type AllSensors struct{}

// Name implements Selector.
func (AllSensors) Name() string { return "all-sensors" }

// Select implements Selector.
func (AllSensors) Select(s *System, state State, energies Energies, positions map[netsim.NodeID]netsim.Position) ([]int, error) {
	alive := s.aliveIndices(energies)
	if len(alive) == 0 || !s.Feasible(alive, state) {
		return nil, ErrInfeasible
	}
	return alive, nil
}

// RandomFeasible picks a uniformly random feasible set — the "any feasible
// set is as good as another" baseline MiLAN's optimization is measured
// against.
type RandomFeasible struct {
	// Rng must be seeded by the caller for reproducibility.
	Rng *rand.Rand
}

// Name implements Selector.
func (RandomFeasible) Name() string { return "random-feasible" }

// Select implements Selector.
func (r RandomFeasible) Select(s *System, state State, energies Energies, positions map[netsim.NodeID]netsim.Position) ([]int, error) {
	alive := s.aliveIndices(energies)
	n := len(alive)
	if n == 0 {
		return nil, ErrInfeasible
	}
	if n > 24 {
		return nil, fmt.Errorf("milan: %d sensors exceed enumeration limit", n)
	}
	var feasible [][]int
	for mask := 1; mask < 1<<n; mask++ {
		set := make([]int, 0, n)
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				set = append(set, alive[b])
			}
		}
		if s.Feasible(set, state) {
			feasible = append(feasible, set)
		}
	}
	if len(feasible) == 0 {
		return nil, ErrInfeasible
	}
	rng := r.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	set := feasible[rng.Intn(len(feasible))]
	sort.Ints(set)
	return set, nil
}

package milan

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ndsm/internal/netsim"
)

const (
	varBP Variable = "blood-pressure"
	varHR Variable = "heart-rate"

	stNormal    State = "normal"
	stEmergency State = "emergency"
)

// demoSystem: 4 sensors; s0/s1 measure BP, s2/s3 measure HR.
func demoSystem() *System {
	return &System{
		App: AppSpec{
			Variables: []Variable{varBP, varHR},
			Required: map[State]map[Variable]float64{
				stNormal:    {varBP: 0.7, varHR: 0.7},
				stEmergency: {varBP: 0.95, varHR: 0.9},
			},
		},
		Sensors: []Sensor{
			{Node: "s0", QoS: map[Variable]float64{varBP: 0.8}, SampleBytes: 100},
			{Node: "s1", QoS: map[Variable]float64{varBP: 0.75}, SampleBytes: 100},
			{Node: "s2", QoS: map[Variable]float64{varHR: 0.85}, SampleBytes: 100},
			{Node: "s3", QoS: map[Variable]float64{varHR: 0.7}, SampleBytes: 100},
		},
		Sink:  "sink",
		Range: 30,
	}
}

func fullEnergies(s *System, e float64) Energies {
	out := make(Energies)
	for _, sn := range s.Sensors {
		out[sn.Node] = e
	}
	return out
}

// positionsAt places every sensor d from the sink, which sits at the origin.
func positionsAt(s *System, d float64) map[netsim.NodeID]netsim.Position {
	out := map[netsim.NodeID]netsim.Position{s.Sink: {}}
	for _, sn := range s.Sensors {
		out[sn.Node] = netsim.Position{X: d, Y: 0}
	}
	return out
}

func TestAppSpecValidate(t *testing.T) {
	s := demoSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilSpec *AppSpec
	if err := nilSpec.Validate(); err == nil {
		t.Error("nil spec validated")
	}
	bad := demoSystem()
	bad.App.Variables = nil
	if err := bad.Validate(); err == nil {
		t.Error("no variables validated")
	}
	bad = demoSystem()
	bad.App.Required[stNormal][varBP] = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("requirement > 1 validated")
	}
	bad = demoSystem()
	bad.Sensors = nil
	if err := bad.Validate(); err == nil {
		t.Error("no sensors validated")
	}
	bad = demoSystem()
	bad.Sensors[1].Node = "s0"
	if err := bad.Validate(); err == nil {
		t.Error("duplicate sensor validated")
	}
	bad = demoSystem()
	bad.Sensors[0].QoS[varBP] = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative sensor QoS validated")
	}
}

func TestCombineProb(t *testing.T) {
	if got := CombineProb([]float64{0.7}); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("single = %v", got)
	}
	if got := CombineProb([]float64{0.7, 0.7}); math.Abs(got-0.91) > 1e-9 {
		t.Fatalf("pair = %v, want 0.91", got)
	}
	if got := CombineProb(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestCombineMax(t *testing.T) {
	if got := CombineMax([]float64{0.3, 0.9, 0.5}); got != 0.9 {
		t.Fatalf("max = %v", got)
	}
	if got := CombineMax(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestSetQualityAndFeasibility(t *testing.T) {
	s := demoSystem()
	// s0 alone: BP 0.8 >= 0.7 but HR 0 < 0.7.
	if s.Feasible([]int{0}, stNormal) {
		t.Fatal("BP-only set feasible for both variables")
	}
	// s0+s2 covers both at normal level.
	if !s.Feasible([]int{0, 2}, stNormal) {
		t.Fatal("s0+s2 should be feasible at normal")
	}
	// Emergency BP needs 0.95: one BP sensor (0.8) is not enough...
	if s.Feasible([]int{0, 2}, stEmergency) {
		t.Fatal("single BP sensor feasible at emergency")
	}
	// ...but two BP sensors combine to 1-(0.2*0.25)=0.95, and the two HR
	// sensors to 1-(0.15*0.3)=0.955 ≥ 0.9.
	if !s.Feasible([]int{0, 1, 2, 3}, stEmergency) {
		t.Fatal("redundant sensors should reach emergency QoS")
	}
	if q := s.SetQuality([]int{0, 1}, varBP); math.Abs(q-0.95) > 1e-9 {
		t.Fatalf("combined BP quality = %v, want 0.95", q)
	}
	if s.Feasible([]int{0}, "no-such-state") {
		t.Fatal("unknown state feasible")
	}
}

func TestCombineMaxChangesFeasibility(t *testing.T) {
	s := demoSystem()
	s.Combine = CombineMax
	// Under max-combining, redundancy gives nothing: emergency BP (0.95)
	// unreachable with 0.8-quality sensors.
	if s.Feasible([]int{0, 1, 2, 3}, stEmergency) {
		t.Fatal("max combine should not reach 0.95")
	}
}

func TestPredictedLifetime(t *testing.T) {
	s := demoSystem()
	energies := fullEnergies(s, 1.0)
	positions := positionsAt(s, 10)
	life1 := s.PredictedLifetime([]int{0}, energies, positions)
	if life1 <= 0 {
		t.Fatalf("lifetime = %v", life1)
	}
	// Half the energy on one member halves the set lifetime.
	energies["s0"] = 0.5
	life2 := s.PredictedLifetime([]int{0}, energies, positions)
	if math.Abs(life2-life1/2) > 1e-6 {
		t.Fatalf("lifetime = %v, want %v", life2, life1/2)
	}
	// A set's lifetime is its weakest member's.
	lifeSet := s.PredictedLifetime([]int{0, 1}, energies, positions)
	if math.Abs(lifeSet-life2) > 1e-6 {
		t.Fatalf("set lifetime = %v, want weakest %v", lifeSet, life2)
	}
	if s.PredictedLifetime(nil, energies, positions) != 0 {
		t.Fatal("empty set lifetime should be 0")
	}
}

func TestExhaustiveSelectsMinimalFeasible(t *testing.T) {
	s := demoSystem()
	energies := fullEnergies(s, 1.0)
	positions := positionsAt(s, 10)
	set, err := Exhaustive{}.Select(s, stNormal, energies, positions)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible(set, stNormal) {
		t.Fatal("selected set infeasible")
	}
	// All sensors are cost-identical here, so lifetime ties; minimal sets
	// (one BP + one HR) must win over larger ones.
	if len(set) != 2 {
		t.Fatalf("selected %v, want a 2-sensor set", set)
	}
}

func TestExhaustivePrefersLongerLifetime(t *testing.T) {
	s := demoSystem()
	energies := fullEnergies(s, 1.0)
	energies["s0"] = 0.1 // s0 nearly drained: choose s1 for BP instead
	positions := positionsAt(s, 10)
	set, err := Exhaustive{}.Select(s, stNormal, energies, positions)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range set {
		if s.Sensors[i].Node == "s0" {
			t.Fatalf("selected drained sensor: %v", set)
		}
	}
}

func TestExhaustiveInfeasible(t *testing.T) {
	s := demoSystem()
	energies := fullEnergies(s, 1.0)
	// Kill both HR sensors.
	energies["s2"], energies["s3"] = 0, 0
	if _, err := (Exhaustive{}).Select(s, stNormal, energies, positionsAt(s, 10)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	// No alive sensors at all.
	if _, err := (Exhaustive{}).Select(s, stNormal, Energies{}, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestGreedyFindsFeasible(t *testing.T) {
	s := demoSystem()
	energies := fullEnergies(s, 1.0)
	positions := positionsAt(s, 10)
	set, err := Greedy{}.Select(s, stEmergency, energies, positions)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible(set, stEmergency) {
		t.Fatalf("greedy set %v infeasible", set)
	}
}

func TestGreedyInfeasible(t *testing.T) {
	s := demoSystem()
	energies := fullEnergies(s, 1.0)
	energies["s2"], energies["s3"] = 0, 0
	if _, err := (Greedy{}).Select(s, stNormal, energies, positionsAt(s, 10)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

// Property: whenever exhaustive finds a set, greedy also finds one, and both
// are feasible; exhaustive's predicted lifetime is never worse than
// greedy's.
func TestSelectorDominanceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	f := func() bool {
		n := 2 + r.Intn(6)
		s := &System{
			App: AppSpec{
				Variables: []Variable{varBP, varHR},
				Required: map[State]map[Variable]float64{
					stNormal: {varBP: 0.5 + r.Float64()*0.3, varHR: 0.5 + r.Float64()*0.3},
				},
			},
			Sink:  "sink",
			Range: 30,
		}
		for i := 0; i < n; i++ {
			s.Sensors = append(s.Sensors, Sensor{
				Node:        netsim.NodeID(rune('a' + i)),
				QoS:         map[Variable]float64{varBP: r.Float64(), varHR: r.Float64()},
				SampleBytes: 50 + r.Intn(100),
			})
		}
		energies := fullEnergies(s, 0.5+r.Float64())
		positions := map[netsim.NodeID]netsim.Position{s.Sink: {}}
		for _, sn := range s.Sensors {
			positions[sn.Node] = netsim.Position{X: r.Float64() * 50, Y: r.Float64() * 50}
		}
		exSet, exErr := Exhaustive{}.Select(s, stNormal, energies, positions)
		grSet, grErr := Greedy{}.Select(s, stNormal, energies, positions)
		if exErr != nil {
			// If the optimal search fails, greedy must fail too.
			return grErr != nil
		}
		if grErr != nil {
			return false // greedy failed where a feasible set exists
		}
		if !s.Feasible(exSet, stNormal) || !s.Feasible(grSet, stNormal) {
			return false
		}
		exLife := s.PredictedLifetime(exSet, energies, positions)
		grLife := s.PredictedLifetime(grSet, energies, positions)
		return exLife >= grLife-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestAllSensorsSelector(t *testing.T) {
	s := demoSystem()
	energies := fullEnergies(s, 1.0)
	set, err := AllSensors{}.Select(s, stNormal, energies, nil)
	if err != nil || len(set) != 4 {
		t.Fatalf("set = %v, %v", set, err)
	}
	energies["s2"], energies["s3"] = 0, 0
	if _, err := (AllSensors{}).Select(s, stNormal, energies, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestRandomFeasibleSelector(t *testing.T) {
	s := demoSystem()
	energies := fullEnergies(s, 1.0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		set, err := (RandomFeasible{Rng: rng}).Select(s, stNormal, energies, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Feasible(set, stNormal) {
			t.Fatalf("random set %v infeasible", set)
		}
	}
	energies["s2"], energies["s3"] = 0, 0
	if _, err := (RandomFeasible{Rng: rng}).Select(s, stNormal, energies, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

// --- manager / lifetime ---

// buildField places the demo sensors in a line toward the sink with the
// given initial energy.
func buildField(t *testing.T, sys *System, energy float64) *netsim.Network {
	t.Helper()
	net := netsim.New(netsim.Config{Range: sys.Range})
	t.Cleanup(net.Close)
	if err := net.AddNodeEnergy(sys.Sink, netsim.Position{}, 1000); err != nil {
		t.Fatal(err)
	}
	for i, sn := range sys.Sensors {
		pos := netsim.Position{X: 10 + float64(i)*5, Y: 0}
		if err := net.AddNodeEnergy(sn.Node, pos, energy); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func TestManagerRoundsDeliver(t *testing.T) {
	sys := demoSystem()
	net := buildField(t, sys, 1.0)
	m, err := NewManager(sys, net, Exhaustive{}, stNormal)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Active()); got != 2 {
		t.Fatalf("active = %v", m.Active())
	}
	for i := 0; i < 5; i++ {
		if err := m.Round(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Rounds != 5 || st.Delivered != 10 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManagerReconfiguresOnDeath(t *testing.T) {
	sys := demoSystem()
	net := buildField(t, sys, 1.0)
	m, err := NewManager(sys, net, Exhaustive{}, stNormal)
	if err != nil {
		t.Fatal(err)
	}
	// Kill one active sensor; the next round must reconfigure, not fail.
	active := m.Active()
	if err := net.Kill(active[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Round(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Reconfigs != 1 {
		t.Fatalf("reconfigs = %d", m.Stats().Reconfigs)
	}
	for _, id := range m.Active() {
		if id == active[0] {
			t.Fatal("dead sensor still active")
		}
	}
}

func TestManagerLifetimeEndsWhenInfeasible(t *testing.T) {
	sys := demoSystem()
	// Tiny batteries: a few rounds drain each sensor.
	net := buildField(t, sys, 3e-4)
	m, err := NewManager(sys, net, Exhaustive{}, stNormal)
	if err != nil {
		t.Fatal(err)
	}
	life, err := m.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if life <= 0 || life >= 100000 {
		t.Fatalf("lifetime = %d", life)
	}
	// After the run, no feasible set remains.
	if _, err := (Exhaustive{}).Select(sys, stNormal, m.energies(), m.positions()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected infeasible at end of life, got %v", err)
	}
}

func TestMilanOutlivesAllSensorsBaseline(t *testing.T) {
	// The paper's headline claim (E6's shape): MiLAN's minimal feasible
	// sets outlive the all-sensors-on baseline.
	run := func(sel Selector) int {
		sys := demoSystem()
		net := buildField(t, sys, 1e-3)
		m, err := NewManager(sys, net, sel, stNormal)
		if err != nil {
			t.Fatal(err)
		}
		life, err := m.Run(1000000)
		if err != nil {
			t.Fatal(err)
		}
		return life
	}
	milanLife := run(Exhaustive{})
	allLife := run(AllSensors{})
	if milanLife <= allLife {
		t.Fatalf("milan %d rounds <= all-sensors %d rounds", milanLife, allLife)
	}
	// With 2 disjoint sensors per variable and rotation via reconfiguration,
	// MiLAN should get close to 2x; require at least 1.4x to avoid
	// brittleness.
	if float64(milanLife) < 1.4*float64(allLife) {
		t.Fatalf("milan advantage too small: %d vs %d", milanLife, allLife)
	}
}

func TestManagerSetState(t *testing.T) {
	sys := demoSystem()
	net := buildField(t, sys, 1.0)
	m, err := NewManager(sys, net, Exhaustive{}, stNormal)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetState(stEmergency); err != nil {
		t.Fatal(err)
	}
	// Emergency needs both BP sensors (combined 0.95) plus an HR sensor.
	if got := len(m.Active()); got < 3 {
		t.Fatalf("emergency active = %v", m.Active())
	}
	if err := m.SetState("bogus"); err == nil {
		t.Fatal("unknown state accepted")
	}
}

func TestNewManagerValidation(t *testing.T) {
	sys := demoSystem()
	net := buildField(t, sys, 1.0)
	if _, err := NewManager(&System{}, net, nil, stNormal); err == nil {
		t.Fatal("invalid system accepted")
	}
	if _, err := NewManager(sys, net, nil, "bogus"); err == nil {
		t.Fatal("unknown state accepted")
	}
	// nil selector defaults to Exhaustive.
	m, err := NewManager(sys, net, nil, stNormal)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Active()) == 0 {
		t.Fatal("default selector selected nothing")
	}
}

func TestManagerRoles(t *testing.T) {
	// A far sensor whose path to the sink must pass through a relay sensor.
	sys := &System{
		App: AppSpec{
			Variables: []Variable{varBP},
			Required:  map[State]map[Variable]float64{stNormal: {varBP: 0.7}},
		},
		Sensors: []Sensor{
			{Node: "far", QoS: map[Variable]float64{varBP: 0.9}, SampleBytes: 50},
			{Node: "mid", QoS: map[Variable]float64{varBP: 0.1}, SampleBytes: 50}, // useless for QoS
		},
		Sink:  "sink",
		Range: 12,
	}
	net := netsim.New(netsim.Config{Range: 12})
	t.Cleanup(net.Close)
	if err := net.AddNodeEnergy("sink", netsim.Position{}, 100); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNodeEnergy("mid", netsim.Position{X: 10}, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNodeEnergy("far", netsim.Position{X: 20}, 1); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(sys, net, Exhaustive{}, stNormal)
	if err != nil {
		t.Fatal(err)
	}
	roles := m.Roles()
	if roles["sink"] != RoleSink {
		t.Fatalf("sink role = %s", roles["sink"])
	}
	if roles["far"] != RoleSource {
		t.Fatalf("far role = %s, want source", roles["far"])
	}
	if roles["mid"] != RoleRouter {
		t.Fatalf("mid role = %s, want router (it relays far's data)", roles["mid"])
	}
	// One round still works with that configuration.
	if err := m.Round(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerRolesSleeper(t *testing.T) {
	sys := demoSystem()
	net := buildField(t, sys, 1.0)
	m, err := NewManager(sys, net, Exhaustive{}, stNormal)
	if err != nil {
		t.Fatal(err)
	}
	roles := m.Roles()
	sleepers := 0
	sources := 0
	for _, r := range roles {
		switch r {
		case RoleSleeper:
			sleepers++
		case RoleSource:
			sources++
		}
	}
	if sources != 2 || sleepers != 2 {
		t.Fatalf("sources=%d sleepers=%d roles=%v", sources, sleepers, roles)
	}
}

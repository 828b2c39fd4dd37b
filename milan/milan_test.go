package milan_test

import (
	"errors"
	"testing"

	"ndsm/milan"
	"ndsm/simnet"
)

const (
	varBP milan.Variable = "blood-pressure"

	stNormal    milan.State = "normal"
	stEmergency milan.State = "emergency"
)

// smokeSystem is a minimal two-sensor system: either BP sensor alone meets
// the normal state, but the emergency state needs both (CombineProb of two
// 0.8 sensors is 0.96).
func smokeSystem() *milan.System {
	return &milan.System{
		App: milan.AppSpec{
			Variables: []milan.Variable{varBP},
			Required: map[milan.State]map[milan.Variable]float64{
				stNormal:    {varBP: 0.7},
				stEmergency: {varBP: 0.9},
			},
		},
		Sensors: []milan.Sensor{
			{Node: "bp-0", QoS: map[milan.Variable]float64{varBP: 0.8}, SampleBytes: 100},
			{Node: "bp-1", QoS: map[milan.Variable]float64{varBP: 0.8}, SampleBytes: 100},
		},
		Sink:  "sink",
		Range: 30,
	}
}

func smokeField(t *testing.T, sys *milan.System) *simnet.Network {
	t.Helper()
	net := simnet.New(simnet.Config{Range: sys.Range})
	if err := net.AddNodeEnergy(sys.Sink, simnet.Position{}, 1e6); err != nil {
		t.Fatalf("AddNodeEnergy(sink): %v", err)
	}
	for i, sn := range sys.Sensors {
		if err := net.AddNodeEnergy(sn.Node, simnet.Position{X: 5 + float64(i)*5}, 1); err != nil {
			t.Fatalf("AddNodeEnergy(%s): %v", sn.Node, err)
		}
	}
	return net
}

// TestManagerSelectsAndReconfigures smokes the public MiLAN API: build a
// system, run the exhaustive selector, switch states, and run a round.
func TestManagerSelectsAndReconfigures(t *testing.T) {
	sys := smokeSystem()
	net := smokeField(t, sys)
	defer net.Close()

	mgr, err := milan.NewManager(sys, net, milan.Exhaustive{}, stNormal)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if got := len(mgr.Active()); got != 1 {
		t.Fatalf("normal state should run exactly 1 sensor, got %d (%v)", got, mgr.Active())
	}
	if err := mgr.SetState(stEmergency); err != nil {
		t.Fatalf("SetState(emergency): %v", err)
	}
	if got := len(mgr.Active()); got != 2 {
		t.Fatalf("emergency state needs both sensors, got %d (%v)", got, mgr.Active())
	}
	if err := mgr.Round(); err != nil {
		t.Fatalf("Round: %v", err)
	}
	if mgr.Stats().Rounds != 1 {
		t.Fatalf("Stats().Rounds = %d, want 1", mgr.Stats().Rounds)
	}
}

// TestCombineRules pins the two exported combine rules' semantics.
func TestCombineRules(t *testing.T) {
	qs := []float64{0.8, 0.8}
	if got := milan.CombineProb(qs); got < 0.959 || got > 0.961 {
		t.Fatalf("CombineProb(0.8, 0.8) = %v, want 0.96", got)
	}
	if got := milan.CombineMax(qs); got != 0.8 {
		t.Fatalf("CombineMax(0.8, 0.8) = %v, want 0.8", got)
	}
}

// TestInfeasible checks the exported lifetime-end error surfaces.
func TestInfeasible(t *testing.T) {
	sys := smokeSystem()
	sys.App.Required[stEmergency][varBP] = 0.999 // beyond both sensors combined
	net := smokeField(t, sys)
	defer net.Close()

	if _, err := milan.NewManager(sys, net, milan.Exhaustive{}, stEmergency); !errors.Is(err, milan.ErrInfeasible) {
		t.Fatalf("NewManager = %v, want ErrInfeasible", err)
	}
}

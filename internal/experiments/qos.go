package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"ndsm/internal/chaos"
	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/qos"
	"ndsm/internal/simtime"
	"ndsm/internal/stats"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

// e3 reproduces §3.4's "nearest best-matched printer": utility-based
// selection against the two naive strategies the paper warns about
// (logical/reliability-only matching, and distance-only matching).
func e3(quick bool) (Result, error) {
	rng := rand.New(rand.NewSource(17))
	user := &svcdesc.Location{X: 50, Y: 50}

	var printers []*svcdesc.Description
	for i, n := 0, pick(quick, 30, 100); i < n; i++ {
		printers = append(printers, &svcdesc.Description{
			Name:        "printer",
			Provider:    fmt.Sprintf("printer-%02d", i),
			Reliability: 0.4 + rng.Float64()*0.5,
			PowerLevel:  1,
			Attributes:  map[string]string{"color": fmt.Sprintf("%t", rng.Intn(2) == 0)},
			Location:    &svcdesc.Location{X: 60 + rng.Float64()*140, Y: 60 + rng.Float64()*140},
		})
	}
	// Two deterministic decoys that expose the naive strategies: the printer
	// right next to the user is flaky, and the most reliable printer is at
	// the far corner.
	printers = append(printers,
		&svcdesc.Description{
			Name: "printer", Provider: "flaky-next-door",
			Reliability: 0.35, PowerLevel: 1,
			Attributes: map[string]string{"color": "true"},
			Location:   &svcdesc.Location{X: 52, Y: 51},
		},
		&svcdesc.Description{
			Name: "printer", Provider: "bulletproof-far-away",
			Reliability: 0.999, PowerLevel: 1,
			Attributes: map[string]string{"color": "true"},
			Location:   &svcdesc.Location{X: 198, Y: 199},
		})
	spec := &qos.Spec{
		Query: svcdesc.Query{
			Name:        "printer",
			Constraints: []svcdesc.Constraint{{Attr: "color", Op: svcdesc.OpEq, Value: "true"}},
		},
		Weights:        qos.Weights{Reliability: 0.4, Proximity: 0.6},
		Near:           user,
		ProximityScale: 200,
	}
	now := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)

	choose := func(strategy string) *svcdesc.Description {
		switch strategy {
		case "utility":
			return qos.Select(spec, printers, now)
		case "nearest-only":
			matching := svcdesc.Filter(printers, &spec.Query, now)
			svcdesc.SortByDistance(matching, *user)
			if len(matching) == 0 {
				return nil
			}
			return matching[0]
		case "reliability-only":
			var best *svcdesc.Description
			for _, d := range svcdesc.Filter(printers, &spec.Query, now) {
				if best == nil || d.Reliability > best.Reliability {
					best = d
				}
			}
			return best
		}
		return nil
	}

	table := stats.NewTable("E3: nearest best-matched printer",
		"strategy", "chosen", "utility", "distance m", "reliability")
	for _, strategy := range []string{"utility", "nearest-only", "reliability-only"} {
		d := choose(strategy)
		if d == nil {
			return Result{}, fmt.Errorf("E3: %s found no printer", strategy)
		}
		table.AddRow(strategy, d.Provider,
			qos.Score(spec, d, now),
			d.Location.Distance(*user),
			d.Reliability)
	}
	return Result{
		ID:     "E3",
		Title:  "QoS matching: utility selection vs naive strategies",
		Tables: []*stats.Table{table},
		Notes: []string{
			"The utility row must have the highest utility column by construction;",
			"the naive rows show what distance-only and reliability-only matching give up.",
		},
	}, nil
}

// e4 measures graceful degradation: request success ratio as suppliers are
// killed at increasing rates, with the kernel's re-matching on versus a
// static binding baseline.
func e4(quick bool) (Result, error) {
	requests, suppliers := pick(quick, 60, 200), pick(quick, 3, 5)
	table := stats.NewTable("E4: availability under supplier failures",
		"kill rate", "mode", "success %", "rebinds", "suppliers left")
	for _, killRate := range []float64{0, 0.01, 0.03} {
		for _, adaptive := range []bool{true, false} {
			success, rebinds, left, err := e4Run(requests, suppliers, killRate, adaptive)
			if err != nil {
				return Result{}, fmt.Errorf("E4 rate=%v adaptive=%v: %w", killRate, adaptive, err)
			}
			mode := "middleware (rebind)"
			if !adaptive {
				mode = "static binding"
			}
			table.AddRow(killRate, mode, 100*success, rebinds, left)
		}
	}
	return Result{
		ID:     "E4",
		Title:  "Graceful degradation: availability across supplier failures",
		Tables: []*stats.Table{table},
		Notes: []string{
			"With re-matching, success stays near 100% until suppliers run out;",
			"a static binding loses every request after its supplier's first crash.",
		},
	}, nil
}

// e4Tick is the virtual time one E4 request represents; the chaos schedule
// places each kill on this grid.
const e4Tick = time.Millisecond

// e4Schedule pre-draws the failure schedule: the same seeded coin flips the
// bespoke kill loop used, expressed declaratively. A step at (i+1)*e4Tick
// fires after the i-th clock advance — i.e. right before request i, exactly
// when the old loop killed. The target "@peer" is resolved at inject time to
// whichever supplier the binding is then using (worst case).
func e4Schedule(requests int, killRate float64) chaos.Schedule {
	rng := rand.New(rand.NewSource(23))
	var sched chaos.Schedule
	for i := 0; i < requests; i++ {
		if killRate > 0 && rng.Float64() < killRate {
			sched = append(sched, chaos.Step{
				At:     time.Duration(i+1) * e4Tick,
				Fault:  chaos.FaultCrashSupplier,
				Target: "@peer",
			})
		}
	}
	return sched
}

func e4Run(requests, suppliers int, killRate float64, adaptive bool) (successRatio float64, rebinds int64, suppliersLeft int, err error) {
	fabric := transport.NewFabric()
	registry := discovery.NewStore(nil, 0)

	mkNode := func(name string) (*core.Node, error) {
		return core.NewNode(core.Config{
			Name:      name,
			Transport: transport.NewMem(fabric),
			Registry:  registry,
		})
	}

	type sup struct {
		node *core.Node
		name string
	}
	var sups []*sup
	for i := 0; i < suppliers; i++ {
		name := fmt.Sprintf("supplier-%d", i)
		n, err := mkNode(name)
		if err != nil {
			return 0, 0, 0, err
		}
		defer n.Close() //nolint:errcheck
		desc := &svcdesc.Description{Name: "sensor/bp", Reliability: 0.9, PowerLevel: 1}
		if err := n.Serve(desc, func(p []byte) ([]byte, error) { return p, nil }); err != nil {
			return 0, 0, 0, err
		}
		sups = append(sups, &sup{node: n, name: name})
	}

	consumer, err := mkNode("consumer")
	if err != nil {
		return 0, 0, 0, err
	}
	defer consumer.Close() //nolint:errcheck
	binding, err := consumer.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, core.BindOptions{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer binding.Close() //nolint:errcheck

	alive := make(map[string]*sup, len(sups))
	for _, s := range sups {
		alive[s.name] = s
	}
	kill := func(name string) {
		s, ok := alive[name]
		if !ok {
			return
		}
		delete(alive, name)
		desc := &svcdesc.Description{Name: "sensor/bp", Provider: name}
		_ = registry.Unregister(desc.Key())
		_ = s.node.Close()
	}

	// The kill loop is the chaos engine: the pre-drawn schedule plays out on
	// a virtual clock that advances one tick per request.
	clock := simtime.NewVirtual(time.Unix(0, 0))
	engine := chaos.NewEngine(clock)
	engine.Register(chaos.FaultCrashSupplier, func(target string) (func() error, error) {
		if target == "@peer" {
			target = binding.Peer() // always kill the supplier in use: worst case
		}
		kill(target)
		return nil, nil
	})
	engine.Load(e4Schedule(requests, killRate))

	ok := 0
	for i := 0; i < requests; i++ {
		clock.Advance(e4Tick)
		if err := engine.Step(); err != nil {
			return 0, 0, 0, err
		}
		var err error
		if adaptive {
			_, err = binding.Request([]byte("r"))
		} else {
			// A static binding fails for good once its supplier dies.
			_, err = binding.RequestStatic([]byte("r"))
		}
		if err == nil {
			ok++
		}
	}
	return float64(ok) / float64(requests), binding.Rebinds.Load(), len(alive), nil
}

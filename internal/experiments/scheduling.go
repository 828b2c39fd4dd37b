package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/qos"
	"ndsm/internal/scheduler"
	"ndsm/internal/stats"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

// e8Job is one released unit of work in the deterministic scheduling
// simulation.
type e8Job struct {
	release  time.Duration // release time from epoch
	exec     time.Duration // execution demand
	deadline time.Duration // absolute deadline from epoch
	priority uint8
}

// e8Generate builds a job stream at the target CPU utilization: three
// periodic "transaction" classes with deadlines equal to their periods.
func e8Generate(utilization float64, jobs int, rng *rand.Rand) []e8Job {
	// Three classes with periods 10/20/40 ms; execution times scale with the
	// requested utilization.
	type class struct {
		period   time.Duration
		share    float64
		priority uint8
	}
	classes := []class{
		{10 * time.Millisecond, 0.5, 3},
		{20 * time.Millisecond, 0.3, 2},
		{40 * time.Millisecond, 0.2, 1},
	}
	var out []e8Job
	for _, c := range classes {
		exec := time.Duration(utilization * c.share * float64(c.period))
		n := jobs / len(classes)
		for i := 0; i < n; i++ {
			release := time.Duration(i) * c.period
			// Small jitter so releases interleave irregularly.
			release += time.Duration(rng.Intn(1000)) * time.Microsecond
			out = append(out, e8Job{
				release:  release,
				exec:     exec,
				deadline: release + c.period,
				priority: c.priority,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].release < out[j].release })
	return out
}

// e8Simulate runs a single-server discrete-time scheduling simulation under
// the given policy and returns the deadline miss ratio.
func e8Simulate(jobs []e8Job, policy scheduler.Policy) float64 {
	queue := scheduler.NewQueue(policy)
	epoch := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	now := time.Duration(0)
	next := 0
	missed, total := 0, 0
	for next < len(jobs) || queue.Len() > 0 {
		// Admit all jobs released by now.
		for next < len(jobs) && jobs[next].release <= now {
			j := jobs[next]
			queue.Push(scheduler.Item{
				Priority: j.priority,
				Deadline: epoch.Add(j.deadline),
				Size:     int(j.exec),
			})
			next++
		}
		it, err := queue.Pop()
		if err != nil {
			// Idle until the next release.
			if next < len(jobs) {
				now = jobs[next].release
				continue
			}
			break
		}
		// Execute: time advances by the job's demand.
		now += time.Duration(it.Size)
		total++
		if epoch.Add(now).After(it.Deadline) {
			missed++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(missed) / float64(total)
}

// e8 sweeps utilization across the three dispatch policies and measures
// deadline miss ratios, then demonstrates departure handoff.
func e8(quick bool) (Result, error) {
	jobs := pick(quick, 120, 400) // per run
	missTable := stats.NewTable("E8: deadline miss ratio vs utilization",
		"utilization", "fifo %", "priority %", "edf %")
	for _, u := range []float64{0.5, 0.7, 0.9, 1.1} {
		stream := e8Generate(u, jobs, rand.New(rand.NewSource(29)))
		fifo := e8Simulate(stream, scheduler.FIFO)
		prio := e8Simulate(stream, scheduler.PriorityOrder)
		edf := e8Simulate(stream, scheduler.EDF)
		missTable.AddRow(u, 100*fifo, 100*prio, 100*edf)
	}

	// Admission tests at the same utilizations.
	admTable := stats.NewTable("E8b: admission tests", "utilization", "RM admissible", "EDF admissible")
	for _, u := range []float64{0.5, 0.7, 0.9, 1.1} {
		tasks := []scheduler.Task{
			{C: time.Duration(u * 0.5 * float64(10*time.Millisecond)), T: 10 * time.Millisecond},
			{C: time.Duration(u * 0.3 * float64(20*time.Millisecond)), T: 20 * time.Millisecond},
			{C: time.Duration(u * 0.2 * float64(40*time.Millisecond)), T: 40 * time.Millisecond},
		}
		admTable.AddRow(u, scheduler.RMAdmissible(tasks), scheduler.EDFAdmissible(tasks))
	}

	// Handoff: a departing supplier's bindings move to replacements.
	handoffTable, err := e8Handoff()
	if err != nil {
		return Result{}, err
	}

	return Result{
		ID:     "E8",
		Title:  "Scheduling: policy comparison, admission control, and handoff",
		Tables: []*stats.Table{missTable, admTable, handoffTable},
		Notes: []string{
			"EDF dominates below overload (U<=1); FIFO misses first.",
			"RM's bound (~0.78 for 3 tasks) rejects U=0.9 sets EDF still admits.",
		},
	}, nil
}

// e8Handoff moves a departing supplier's bindings: a consumer holds one
// binding to each of the ten services the departing node serves, and eight
// of those services gain a backup supplier once the bindings are made.
func e8Handoff() (*stats.Table, error) {
	const services, backups = 10, 8
	fabric := transport.NewFabric()
	registry := discovery.NewStore(nil, 0)
	var nodes []*core.Node
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	node := func(name string) (*core.Node, error) {
		n, err := core.NewNode(core.Config{Name: name, Transport: transport.NewMem(fabric), Registry: registry})
		if err == nil {
			nodes = append(nodes, n)
		}
		return n, err
	}
	topic := func(i int) string { return fmt.Sprintf("svc-%d", i) }
	serve := func(n *core.Node, i int) error {
		d := &svcdesc.Description{Name: topic(i), Reliability: 0.9, PowerLevel: 1}
		return n.Serve(d, func(p []byte) ([]byte, error) { return p, nil })
	}
	departing, err := node("departing")
	if err != nil {
		return nil, err
	}
	consumer, err := node("consumer")
	if err != nil {
		return nil, err
	}
	for i := 0; i < services; i++ {
		if err := serve(departing, i); err != nil {
			return nil, err
		}
		if _, err := consumer.Bind(&qos.Spec{Query: svcdesc.Query{Name: topic(i)}}, core.BindOptions{}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < backups; i++ {
		backup, err := node(fmt.Sprintf("backup-%d", i))
		if err != nil {
			return nil, err
		}
		if err := serve(backup, i); err != nil {
			return nil, err
		}
	}
	moved, aborted := consumer.HandoffPeer("departing")
	t := stats.NewTable("E8c: departure handoff", "transactions", "moved", "aborted")
	t.AddRow(services, moved, aborted)
	return t, nil
}

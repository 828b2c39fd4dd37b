package experiments

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/stats"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// The overload workload's shape, shared by E13 and E14: a server with
// overloadSlots concurrent slots, overloadWork of simulated work a request,
// and a control loop probing every overloadPeriod with the period as its
// deadline.
const (
	overloadSlots  = 8
	overloadWork   = 2 * time.Millisecond
	overloadPeriod = 10 * time.Millisecond
)

const (
	e13BulkDeadline = 100 * time.Millisecond // bounds each bulk transfer request
	e13ControlQuota = 2                      // lanes mode's control-lane reservation
	e13QueueDepth   = 32                     // lanes mode's pending queue per lane
)

// e13Point is one (mode, load) measurement.
type e13Point struct {
	mode        string
	load        float64
	ctlHit      int64
	ctlMiss     int64
	bulkOK      int64
	bulkShed    int64
	srvExpired  int64
	srvPreempt  int64
	bulkOffered int64
}

// e13Gates: the priority-lane contract is "~0% control misses under
// overload", so a run where the control lane misses more than 1% of its
// deadlines at 2x has broken admission isolation.
var e13Gates = []Gate{
	{"E13: deadline miss rate vs offered load/lanes 2.0x/control miss %", 1,
		"control-lane deadline-miss % at 2x overload (isolation)"},
}

// e13 drives a simulated periodic control loop alongside an open-loop bulk
// telemetry flood at a bounded endpoint server, sweeping offered load from
// half capacity to 2x overload, and compares two admission modes on the same
// workload: "flat" (the old single MaxInFlight bound, first-come first-served)
// and "lanes" (per-lane quotas + shared pool + benefit-aware queue shedding).
//
// The claim under test is the paper's overload story: admission control must
// preserve time-constrained work when demand exceeds capacity. With a control
// lane reservation, the control loop's deadline-miss rate stays ~0% even at 2x
// overload, because bulk traffic is what sheds; under the flat bound the bulk
// flood monopolizes every slot and the control loop starves.
func e13(quick bool) (Result, error) {
	// The measured window of each (mode, load) point.
	duration := pick(quick, 350*time.Millisecond, 1500*time.Millisecond)
	var points []e13Point
	for _, mode := range []string{"flat", "lanes"} {
		// Offered load as a multiple of server capacity.
		for _, load := range pick(quick, []float64{1, 2}, []float64{0.5, 1, 2}) {
			p, err := e13Run(mode, load, duration)
			if err != nil {
				return Result{}, fmt.Errorf("E13 %s %.1fx: %w", mode, load, err)
			}
			points = append(points, p)
		}
	}

	table := stats.NewTable("E13: deadline miss rate vs offered load",
		"mode+load", "control miss %", "control calls", "bulk ok %", "bulk shed %", "bulk offered")
	pct := func(part, total int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(part) / float64(total)
	}
	for _, p := range points {
		table.AddRow(fmt.Sprintf("%s %.1fx", p.mode, p.load),
			pct(p.ctlMiss, p.ctlHit+p.ctlMiss),
			p.ctlHit+p.ctlMiss,
			pct(p.bulkOK, p.bulkOffered),
			pct(p.bulkShed, p.bulkOffered),
			p.bulkOffered)
	}

	notes := []string{
		fmt.Sprintf("server: MaxInFlight %d, service time %v; control loop period %v (deadline = period);",
			overloadSlots, overloadWork, overloadPeriod),
		fmt.Sprintf("lanes mode reserves %d slots for the control lane and queues %d per lane;",
			e13ControlQuota, e13QueueDepth),
		"bulk is an open-loop flood of lane-bulk futures at the stated multiple of capacity.",
	}
	for _, p := range points {
		if p.mode == "lanes" && (p.srvExpired > 0 || p.srvPreempt > 0) {
			notes = append(notes, fmt.Sprintf(
				"lanes %.1fx queue shedding: %d expired in queue, %d preempted by higher-benefit work.",
				p.load, p.srvExpired, p.srvPreempt))
		}
	}
	return Result{
		ID:     "E13",
		Title:  "Priority lanes: control-loop deadline misses under bulk overload",
		Tables: []*stats.Table{table},
		Notes:  notes,
	}, nil
}

// e13Run measures one (mode, load) point on a fresh server.
func e13Run(mode string, load float64, duration time.Duration) (e13Point, error) {
	reg := obs.NewRegistry()
	var lanes *endpoint.LaneConfig
	if mode == "lanes" {
		lanes = &endpoint.LaneConfig{
			Quota:      map[endpoint.Lane]int{endpoint.LaneControl: e13ControlQuota},
			QueueDepth: e13QueueDepth,
		}
	}
	rig, err := newOverloadRig(lanes, reg)
	if err != nil {
		return e13Point{}, err
	}
	defer rig.close()

	p := e13Point{mode: mode, load: load}
	stop := make(chan struct{})
	var ok, shed atomic.Int64
	// The flood lasts until the control loop is done.
	wait := rig.flood(time.Now(), load, math.MaxInt64, e13BulkDeadline, stop, func(err error) {
		switch {
		case err == nil:
			ok.Add(1)
		case endpoint.IsShed(err):
			shed.Add(1)
		}
	})

	// Periodic control loop: one request per period, deadline = the period.
	// A miss is any error (a shed counts — the work did not complete in time).
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		began := time.Now()
		_, err := rig.ctl.Do(&endpoint.Call{Topic: "work", Timeout: overloadPeriod})
		if err == nil {
			p.ctlHit++
		} else {
			p.ctlMiss++
		}
		if rest := overloadPeriod - time.Since(began); rest > 0 {
			time.Sleep(rest)
		}
	}
	close(stop)
	p.bulkOffered = wait()
	p.bulkOK = ok.Load()
	p.bulkShed = shed.Load()
	if mode == "lanes" {
		p.srvExpired = reg.Counter("srv.shed.expired").Value()
		p.srvPreempt = reg.Counter("srv.shed.preempted").Value()
	}
	return p, nil
}

// overloadRig is the overload workload E13 and E14 share: a server with
// overloadSlots slots whose "work" handler takes overloadWork, and one
// caller per lane. Each caller classifies its whole traffic stream once, the
// way a real control plane and a real bulk pipeline would.
type overloadRig struct {
	srv       *endpoint.Server
	ctl, bulk *endpoint.Caller
}

// newOverloadRig starts the server on a fresh mem fabric, with lanes (nil
// for the flat bound) and metrics, and dials its two callers.
func newOverloadRig(lanes *endpoint.LaneConfig, metrics *obs.Registry) (*overloadRig, error) {
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		return nil, err
	}
	r := &overloadRig{srv: endpoint.NewServer(l, endpoint.ServerOptions{
		Name:        "srv",
		MaxInFlight: overloadSlots,
		Metrics:     metrics,
		Lanes:       lanes,
	})}
	r.srv.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		time.Sleep(overloadWork)
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	if r.ctl, err = endpoint.NewCaller(tr, "srv", endpoint.CallerOptions{Lane: endpoint.LaneControl}); err != nil {
		r.close()
		return nil, err
	}
	if r.bulk, err = endpoint.NewCaller(tr, "srv", endpoint.CallerOptions{Lane: endpoint.LaneBulk}); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *overloadRig) close() {
	if r.bulk != nil {
		r.bulk.Close()
	}
	if r.ctl != nil {
		r.ctl.Close()
	}
	r.srv.Close()
}

// flood offers bulk calls open-loop at load times the server's capacity
// from a 1 ms ticker, self-correcting against timer jitter, until stop
// closes or floodFor has passed since start. Each call's outcome goes to
// settle. The returned func waits for the flood and every call it made, and
// returns how many calls it offered.
func (r *overloadRig) flood(start time.Time, load float64, floodFor, timeout time.Duration,
	stop <-chan struct{}, settle func(error)) (wait func() int64) {
	rate := load * overloadSlots / overloadWork.Seconds()
	var offered int64
	var wg, futs sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			elapsed := time.Since(start)
			if elapsed >= floodFor {
				return
			}
			for due := int64(elapsed.Seconds() * rate); offered < due; offered++ {
				fut := r.bulk.Go(&endpoint.Call{Topic: "work", Timeout: timeout})
				futs.Add(1)
				go func() {
					defer futs.Done()
					_, err := fut.Wait()
					settle(err)
				}()
			}
		}
	}()
	return func() int64 {
		wg.Wait()
		futs.Wait()
		return offered
	}
}

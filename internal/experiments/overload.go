package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/stats"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// E13Options sizes the priority-lane overload experiment.
type E13Options struct {
	// Duration is the measured window per (mode, load) point (default 1.5s).
	Duration time.Duration
	// Loads are offered-load multiples of server capacity (default 0.5, 1, 2).
	Loads []float64
	// ServiceTime is the simulated per-request work (default 2ms).
	ServiceTime time.Duration
	// MaxInFlight is the server's concurrency bound (default 8).
	MaxInFlight int
	// ControlPeriod spaces the periodic control loop's requests; each request's
	// deadline is the next period boundary (default 10ms).
	ControlPeriod time.Duration
	// BulkDeadline bounds each bulk transfer request (default 100ms).
	BulkDeadline time.Duration
	// ControlQuota reserves admission slots for the control lane (default 2).
	ControlQuota int
	// QueueDepth bounds each lane's pending queue in lanes mode (default 32).
	QueueDepth int
}

func (o E13Options) withDefaults() E13Options {
	if o.Duration <= 0 {
		o.Duration = 1500 * time.Millisecond
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.5, 1, 2}
	}
	if o.ServiceTime <= 0 {
		o.ServiceTime = 2 * time.Millisecond
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 8
	}
	if o.ControlPeriod <= 0 {
		o.ControlPeriod = 10 * time.Millisecond
	}
	if o.BulkDeadline <= 0 {
		o.BulkDeadline = 100 * time.Millisecond
	}
	if o.ControlQuota <= 0 {
		o.ControlQuota = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 32
	}
	return o
}

// e13Point is one (mode, load) measurement.
type e13Point struct {
	mode        string
	load        float64
	ctlHit      int64
	ctlMiss     int64
	bulkOK      int64
	bulkShed    int64
	bulkMiss    int64 // timed out / late, not shed
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

// E13 drives a simulated periodic control loop alongside an open-loop bulk
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
func E13(opts E13Options) (Result, error) {
	opts = opts.withDefaults()
	var points []e13Point
	for _, mode := range []string{"flat", "lanes"} {
		for _, load := range opts.Loads {
			p, err := e13Run(mode, load, opts)
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
			opts.MaxInFlight, opts.ServiceTime, opts.ControlPeriod),
		fmt.Sprintf("lanes mode reserves %d slots for the control lane and queues %d per lane;",
			opts.ControlQuota, opts.QueueDepth),
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
func e13Run(mode string, load float64, opts E13Options) (e13Point, error) {
	reg := obs.NewRegistry()
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		return e13Point{}, err
	}
	sopts := endpoint.ServerOptions{Name: "srv", MaxInFlight: opts.MaxInFlight, Metrics: reg}
	if mode == "lanes" {
		sopts.Lanes = &endpoint.LaneConfig{
			Quota:      map[endpoint.Lane]int{endpoint.LaneControl: opts.ControlQuota},
			QueueDepth: opts.QueueDepth,
		}
	}
	srv := endpoint.NewServer(l, sopts)
	defer srv.Close()
	srv.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		time.Sleep(opts.ServiceTime)
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	// Separate callers per lane: each classifies its whole traffic stream
	// once, the way a real control plane and a real bulk pipeline would.
	ctl, err := endpoint.NewCaller(tr, "srv", endpoint.CallerOptions{Lane: endpoint.LaneControl})
	if err != nil {
		return e13Point{}, err
	}
	defer ctl.Close()
	bulk, err := endpoint.NewCaller(tr, "srv", endpoint.CallerOptions{Lane: endpoint.LaneBulk})
	if err != nil {
		return e13Point{}, err
	}
	defer bulk.Close()

	p := e13Point{mode: mode, load: load}
	stop := make(chan struct{})
	var wg sync.WaitGroup // bulk producer
	var futs sync.WaitGroup
	var offered, ok64, shed64, miss64 atomic.Int64

	// Open-loop bulk flood: capacity is MaxInFlight/ServiceTime requests per
	// second; offer load x that, self-correcting against timer jitter.
	rate := load * float64(opts.MaxInFlight) / opts.ServiceTime.Seconds()
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			due := int64(time.Since(start).Seconds() * rate)
			for offered.Load() < due {
				offered.Add(1)
				fut := bulk.Go(&endpoint.Call{Topic: "work", Timeout: opts.BulkDeadline})
				futs.Add(1)
				go func() {
					defer futs.Done()
					_, err := fut.Wait()
					switch {
					case err == nil:
						ok64.Add(1)
					case endpoint.IsShed(err):
						shed64.Add(1)
					default:
						miss64.Add(1)
					}
				}()
			}
		}
	}()

	// Periodic control loop: one request per period, deadline = the period.
	// A miss is any error (a shed counts — the work did not complete in time).
	deadline := time.Now().Add(opts.Duration)
	for time.Now().Before(deadline) {
		began := time.Now()
		_, err := ctl.Do(&endpoint.Call{Topic: "work", Timeout: opts.ControlPeriod})
		if err == nil {
			p.ctlHit++
		} else {
			p.ctlMiss++
		}
		if rest := opts.ControlPeriod - time.Since(began); rest > 0 {
			time.Sleep(rest)
		}
	}
	close(stop)
	wg.Wait()
	futs.Wait()

	p.bulkOffered = offered.Load()
	p.bulkOK = ok64.Load()
	p.bulkShed = shed64.Load()
	p.bulkMiss = miss64.Load()
	if mode == "lanes" {
		p.srvExpired = reg.Counter("srv.shed.expired").Value()
		p.srvPreempt = reg.Counter("srv.shed.preempted").Value()
	}
	return p, nil
}

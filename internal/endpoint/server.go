package endpoint

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/reqlog"
	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// ServerOptions tunes a Server.
type ServerOptions struct {
	// Name stamps replies' Src when handlers leave it empty.
	Name string
	// Kinds lists the message kinds dispatched to handlers; other kinds are
	// silently ignored (default: KindRequest and KindControl).
	Kinds []wire.Kind
	// OneWayKinds lists kinds dispatched fire-and-forget: the topic handler
	// runs but no reply is written (its return value is discarded), matching
	// calls issued with Call.OneWay. Typical values: KindData, KindEvent. A
	// kind listed here wins over Kinds. Under admission-control overload
	// one-way messages are dropped (and counted as shed) — there is no
	// reply to reject them with.
	OneWayKinds []wire.Kind
	// Interceptors wrap every dispatch, outermost first.
	Interceptors []ServerInterceptor
	// Fallback serves topics with no registered handler (default: a
	// KindError reply naming the topic).
	Fallback Handler
	// MaxInFlight bounds concurrent in-flight requests across all
	// connections (admission control); excess requests are rejected before
	// dispatch with a KindShed reply, which callers surface as a retryable
	// *ShedError. 0 means unlimited.
	MaxInFlight int
	// Lanes enables priority-lane admission control over the MaxInFlight
	// pool: per-lane reserved quotas plus a shared remainder that low lanes
	// borrow from and surrender first, and a deadline-aware pending queue
	// that sheds lowest-benefit work first under overload. Nil keeps the
	// flat single-counter bound.
	Lanes *LaneConfig
	// Metrics receives the admission counters (nil: counted nowhere):
	// shed rejections under "<Name or endpoint.server>.shed", plus — with
	// Lanes configured — "<name>.shed.expired", "<name>.shed.preempted",
	// and per-lane "<name>.lane.<lane>.{admitted,shed,queued}".
	Metrics *obs.Registry
	// DispatchMetrics names the dispatch instruments the server keeps in
	// Metrics: "<DispatchMetrics>.requests", "<DispatchMetrics>.errors" and
	// the handler latency histogram "<DispatchMetrics>.latency_ms", timed by
	// the stopwatch that times ReqLog's events. Empty counts no dispatches.
	DispatchMetrics string
	// ReqLog receives one wide event per inbound request — dispatched work
	// with queue wait and handler latency, shed work with its reason (sheds
	// never reach the interceptor chain, so this is their only per-request
	// record). Nil disables recording at the cost of one nil check.
	ReqLog *reqlog.Recorder
	// Clock timestamps wide events and drives the admitter's deadline-expiry
	// and benefit decisions (default real time; virtual in tests). It must
	// agree with the clock callers stamp deadlines from.
	Clock simtime.Clock
}

// Server is the listening half of the endpoint: it accepts connections and
// dispatches each inbound request to its topic handler on a handler goroutine
// of its own, so a slow handler never head-of-line blocks a connection. The
// goroutines are reused between requests — one that has finished parks for
// the next request instead of exiting — because a new goroutine starts on the
// runtime's smallest stack and outgrows it while encoding its reply: the
// stack copy was a fifth of the server's CPU at capacity, and a goroutine
// that has served one request already has the depth the next one needs.
type Server struct {
	listener transport.Listener
	opts     ServerOptions
	dispatch Handler
	accepts  map[wire.Kind]bool
	oneway   map[wire.Kind]bool

	// adm is the admission controller; nil means unlimited (no bound was
	// configured) and requests dispatch straight off the read loop.
	adm *admitter

	// rec is the wide-event recorder (nil: disabled).
	rec   *reqlog.Recorder
	clock simtime.Clock

	// The dispatch instruments (nil: uncounted). timed is set when they or
	// rec are: then run reads the clock once at each end of a dispatch.
	requests *obs.Counter
	errs     *obs.Counter
	latency  *obs.Histogram
	timed    bool

	// tasks hands a request to a parked worker. It is unbuffered on purpose:
	// a non-blocking send succeeds exactly when a worker is blocked receiving,
	// so a request is never left waiting behind a busy one. Close wakes the
	// parked workers through served.Done so they exit; parked counts them.
	tasks  chan task
	parked atomic.Int32
	// started counts worker goroutines ever started (read by tests).
	started atomic.Int64

	// served runs the accept loop and the connections' read loops; wg counts
	// the handler goroutines.
	served transport.Served
	wg     sync.WaitGroup

	mu       sync.Mutex
	handlers map[string]Handler
}

// NewServer starts serving on the listener in a background accept loop.
func NewServer(l transport.Listener, opts ServerOptions) *Server {
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = []wire.Kind{wire.KindRequest, wire.KindControl}
	}
	metricName := opts.Name
	if metricName == "" {
		metricName = "endpoint.server"
	}
	clock := simtime.OrReal(opts.Clock)
	s := &Server{
		listener: l,
		opts:     opts,
		accepts:  make(map[wire.Kind]bool, len(kinds)),
		oneway:   make(map[wire.Kind]bool, len(opts.OneWayKinds)),
		handlers: make(map[string]Handler),
		tasks:    make(chan task),
		rec:      opts.ReqLog,
		clock:    clock,
	}
	if name := opts.DispatchMetrics; name != "" && opts.Metrics != nil {
		s.requests = opts.Metrics.Counter(name + ".requests")
		s.errs = opts.Metrics.Counter(name + ".errors")
		s.latency = opts.Metrics.Histogram(name + ".latency_ms")
	}
	s.timed = s.rec != nil || s.requests != nil
	capacity := opts.MaxInFlight
	if capacity == 0 && opts.Lanes != nil {
		// Lanes without an explicit bound: the reservations are the bound.
		for _, q := range opts.Lanes.Quota {
			if q > 0 {
				capacity += q
			}
		}
	}
	if capacity > 0 {
		s.adm = newAdmitter(s, capacity, opts.Lanes, metricName, opts.Metrics)
	} else {
		// Register the shed counter even when unlimited, so the metric name
		// exists (at zero) wherever a server runs.
		opts.Metrics.Counter(metricName + ".shed")
	}
	for _, k := range kinds {
		s.accepts[k] = true
	}
	for _, k := range opts.OneWayKinds {
		s.oneway[k] = true
	}
	s.dispatch = chainServer(opts.Interceptors, s.route)
	s.served.Serve(l, s.serveConn)
	return s
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Handle registers (or replaces) the handler for a topic.
func (s *Server) Handle(topic string, h Handler) {
	s.mu.Lock()
	s.handlers[topic] = h
	s.mu.Unlock()
}

// Unhandle removes a topic's handler; subsequent requests hit the fallback.
func (s *Server) Unhandle(topic string) {
	s.mu.Lock()
	delete(s.handlers, topic)
	s.mu.Unlock()
}

// SetLaneQuota re-reserves one lane's admission quota at runtime —
// telemetry-driven adapters widen the control lane while its deadline-miss
// SLO burns and decay it back after recovery. Growth borrows from (and is
// clamped to) the shared pool so total capacity never changes. Reports
// false on servers without lane-aware admission.
func (s *Server) SetLaneQuota(lane Lane, quota int) bool {
	if s.adm == nil || !s.adm.laneAware {
		return false
	}
	s.adm.setQuota(lane.rank(), quota)
	return true
}

// Close stops accepting, closes all connections, and waits for in-flight
// handlers and for every parked handler goroutine to exit. Queued
// (admitted-pending) requests are dropped. The read loops are waited for
// first, so none can start a worker while Close waits on s.wg.
func (s *Server) Close() error {
	s.served.Close()
	if s.adm != nil {
		s.adm.close()
	}
	s.wg.Wait()
	return nil
}

// route is the terminal Handler: topic lookup plus fallback.
func (s *Server) route(req *wire.Message) (*wire.Message, error) {
	s.mu.Lock()
	h := s.handlers[req.Topic]
	s.mu.Unlock()
	if h == nil {
		if s.opts.Fallback != nil {
			return s.opts.Fallback(req)
		}
		return nil, fmt.Errorf("endpoint: no handler for topic %q", req.Topic)
	}
	return h(req)
}

func (s *Server) serveConn(conn transport.Conn) {
	// Replies are written straight from handler goroutines: Conn.Send is
	// safe for concurrent use, and on coalescing transports concurrent
	// replies share one frame batch — serializing them here would cap every
	// batch at a single message.
	for {
		req, err := conn.Recv()
		if err != nil {
			return
		}
		if !s.oneway[req.Kind] && !s.accepts[req.Kind] {
			wire.Recycle(req)
			continue
		}
		if s.adm == nil {
			s.spawn(req, conn, admitToken{}, 0)
			continue
		}
		// Admission control: the controller either dispatches (spawn), parks
		// the request in a lane queue, or sheds it — before a goroutine is
		// spawned, so overload costs the server one small reply (or, for
		// one-way traffic, nothing) instead of a dispatch.
		s.adm.offer(req, conn)
	}
}

// maxParked bounds the handler goroutines kept parked between requests. It
// bounds memory held while idle, not concurrency: a request that finds nobody
// parked gets a new goroutine, and a worker that finds the set full exits.
const maxParked = 256

// task is one admitted request on its way to a handler goroutine. wait is how
// long it sat in an admission queue before dispatch (zero off the read loop),
// carried onto its wide event.
type task struct {
	req  *wire.Message
	conn transport.Conn
	tok  admitToken
	wait time.Duration
}

// spawn dispatches req on a handler goroutine of its own, reused between
// requests: a parked worker takes it if one exists, otherwise a new worker
// starts — either way the request runs at once and for as long as its
// handler takes, and nothing queues behind a busy worker. Reuse is for the
// stack: a worker that has sent one reply has already grown to the depth a
// dispatch and an encode need, where a new goroutine would copy its stack on
// every request. The Add below never meets Close's Wait at zero: a worker
// releasing its slot and setQuota hold s.wg, and Close waits for the
// connections' read loops before it waits on s.wg.
func (s *Server) spawn(req *wire.Message, conn transport.Conn, tok admitToken, wait time.Duration) {
	t := task{req: req, conn: conn, tok: tok, wait: wait}
	select {
	case s.tasks <- t:
	default:
		s.wg.Add(1)
		s.started.Add(1)
		go s.work(t)
	}
}

// work is a handler goroutine: it runs the request it was started for, then
// every request it is handed while parked, until park sends it home.
func (s *Server) work(t task) {
	defer s.wg.Done()
	for ok := true; ok; t, ok = s.park() {
		s.run(t)
	}
}

// park blocks until spawn hands this worker its next request; false means
// exit instead, because Close has begun or maxParked workers are parked
// already. A parked worker holds no request, token or connection — only its
// stack and its count in s.wg — and neither parking nor waking reads a clock.
func (s *Server) park() (task, bool) {
	if s.parked.Add(1) > maxParked {
		s.parked.Add(-1)
		return task{}, false
	}
	defer s.parked.Add(-1)
	select {
	case t := <-s.tasks:
		return t, true
	case <-s.served.Done():
		return task{}, false
	}
}

// run serves one request and releases its admission slot — promoting queued
// work onto it — when the handler finishes. The token release lives here and
// nowhere else: whichever path admitted the request (straight off the read
// loop or out of a lane queue), the slot cannot leak or double-free. One-way
// kinds run the handler and write nothing back. One clock read at each end
// of the dispatch times both its wide event and its metrics.
//
// The server owns the request (see transport.Conn.Recv) and is its last owner
// here: the handler has returned, the wide event is recorded and Send has
// encoded or cloned a reply that may alias it, so it is recycled. A handler
// that returns the request itself as the reply is recycling that same message.
// Any other reply is the server's too (see Handler), and once sent it goes
// back to msgPool, where NewReply and the ack and error replies come from.
func (s *Server) run(t task) {
	defer s.adm.release(t.tok)
	req := t.req
	defer wire.Recycle(req)
	var start time.Time
	if s.timed {
		start = s.clock.Now()
	}
	reply, err := s.dispatch(req)
	if s.timed {
		s.observe(req, t.wait, start, s.clock.Since(start), err)
	}
	if s.oneway[req.Kind] {
		return
	}
	if err != nil {
		reply = getMsg()
		reply.Kind, reply.Payload = wire.KindError, []byte(err.Error())
	} else if reply == nil {
		reply = getMsg()
		reply.Kind = wire.KindAck
	}
	reply.Corr = req.ID
	if reply.Topic == "" {
		reply.Topic = req.Topic
	}
	if reply.Src == "" {
		reply.Src = s.opts.Name
	}
	_ = t.conn.Send(reply)
	if reply != req {
		putMsg(reply)
	}
}

// observe counts a dispatch that began at start and took elapsed, and records
// its wide event.
func (s *Server) observe(req *wire.Message, wait time.Duration, start time.Time, elapsed time.Duration, err error) {
	s.requests.Inc(1)
	s.latency.Observe(millis(elapsed))
	if err != nil {
		s.errs.Inc(1)
	}
	if s.rec != nil {
		s.recordDispatch(req, wait, elapsed, start.Add(elapsed), err)
	}
}

// reject answers a shed request with a KindShed reply whose Priority stamps
// the lane the shed was charged to; callers surface it as a
// retryable *ShedError. One-way messages are dropped silently — counted as
// shed, but there is no reply channel to reject them with. wait is time the
// request spent queued before being shed (zero at admission). Whoever sheds a
// request is its last owner — it was never dispatched, or has left its queue —
// so it is recycled here, as run recycles what it served. The reply's
// envelope comes from msgPool and its payload is the reason's, built once:
// a shed allocates nothing on the server.
func (s *Server) reject(req *wire.Message, conn transport.Conn, lane Lane, reason *shedReason, wait time.Duration) {
	defer wire.Recycle(req)
	if s.rec != nil {
		s.recordShed(req, lane, reason.text, wait)
	}
	if s.oneway[req.Kind] {
		return
	}
	reject := getMsg()
	reject.Kind = wire.KindShed
	reject.Priority = lane.priority()
	reject.Corr = req.ID
	reject.Topic = req.Topic
	reject.Src = s.opts.Name
	reject.Payload = reason.payload
	_ = conn.Send(reject)
	putMsg(reject)
}

// shedReason is why a request was shed, as text for its wide event and as the
// payload of its reject reply. The payload is shared by every reply that
// carries it and read-only, as a sent message's payload is.
type shedReason struct {
	text    string
	payload []byte
}

func newShedReason(text string) *shedReason {
	return &shedReason{text: text, payload: []byte(text)}
}

// The reasons the admitter sheds for.
var (
	reasonAtCapacity         = newShedReason("server at capacity")
	reasonExpiredAtAdmission = newShedReason("deadline passed at admission")
	reasonExpiredInQueue     = newShedReason("deadline passed in queue")
	reasonPreempted          = newShedReason("preempted by higher-benefit work")
)

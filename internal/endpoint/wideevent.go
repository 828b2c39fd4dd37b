package endpoint

import (
	"errors"
	"time"

	"ndsm/internal/reqlog"
	"ndsm/internal/trace"
	"ndsm/internal/wire"
)

// WideEventOptions configures WithWideEvents.
type WideEventOptions struct {
	// Recorder receives one wide event per call. Nil makes the interceptor a
	// zero-allocation pass-through (the same disabled-path idiom as tracing).
	Recorder *reqlog.Recorder
	// Peer labels events whose call has no Dst (the caller's dial address).
	Peer string
}

// WithWideEvents records one wide event per logical call — after retries, so
// the event carries the attempt count and the final outcome. Place it
// outermost: the tracing interceptor inside it injects trace context into the
// call's headers, which is where the event's exemplar IDs come from. The
// event is timed by the call's stopwatch (see Call.Elapsed), which Do starts
// before the chain, on the caller's clock: the interceptor reads no clock.
//
// Together with the server-side recording built into Server (see
// ServerOptions.ReqLog) this gives every rpc/mq/discovery/core exchange two
// wide events — the caller's view (retries, total latency) and the server's
// (queue wait, dispatch latency) — with no per-protocol call sites.
func WithWideEvents(opts WideEventOptions) ClientInterceptor {
	rec := opts.Recorder
	return func(next ClientFunc) ClientFunc {
		if rec == nil {
			return next
		}
		return func(call *Call) (*wire.Message, error) {
			before := call.elapsed
			m, err := next(call)

			ev := reqlog.Record{
				Kind:    reqlog.KindClient,
				Topic:   call.Topic,
				Peer:    call.Dst,
				Lane:    call.Lane.String(),
				Outcome: clientOutcome(err),
				Latency: call.elapsed - before,
				Retries: int(call.attempts),
			}
			if call.start != nil { // nil only for a chain run outside Do
				ev.Time = call.start.Add(call.elapsed)
			}
			if ev.Peer == "" {
				ev.Peer = opts.Peer
			}
			if call.Timeout > 0 {
				ev.HasDeadline = true
				ev.DeadlineSlack = call.Timeout - ev.Latency
			}
			// The tracing interceptor (inside this one) replaced call.Headers
			// with a trace-stamped copy; lift the IDs as exemplars.
			if ctx := trace.Extract(call.Headers); ctx.Valid() {
				ev.TraceID, ev.SpanID = ctx.TraceID, ctx.SpanID
			}
			rec.Record(ev)
			return m, err
		}
	}
}

// clientOutcome folds the endpoint error taxonomy into the wide-event
// outcome vocabulary.
func clientOutcome(err error) string {
	switch {
	case err == nil:
		return reqlog.OutcomeOK
	case IsShed(err):
		return reqlog.OutcomeShed
	case errors.Is(err, ErrTimeout):
		return reqlog.OutcomeTimeout
	case errors.Is(err, ErrUnavailable), errors.Is(err, ErrClosed), errors.Is(err, ErrCircuitOpen):
		return reqlog.OutcomeUnavailable
	default:
		return reqlog.OutcomeError
	}
}

// recordDispatch emits the server-side wide event for a dispatched request.
// Called from the handler goroutine after the handler returns; s.rec is nil
// when no recorder was configured (checked by the caller, so the disabled
// path costs one nil test).
func (s *Server) recordDispatch(req *wire.Message, wait, latency time.Duration, now time.Time, handlerErr error) {
	ev := reqlog.Record{
		Time:      now,
		Kind:      reqlog.KindServer,
		Topic:     req.Topic,
		Peer:      req.Src,
		Lane:      laneOf(req).String(),
		Outcome:   reqlog.OutcomeOK,
		Latency:   latency,
		QueueWait: wait,
	}
	if handlerErr != nil {
		ev.Outcome = reqlog.OutcomeError
	}
	if !req.Deadline.IsZero() {
		ev.HasDeadline = true
		ev.DeadlineSlack = req.Deadline.Sub(now)
	}
	if ctx := trace.Extract(req.Headers); ctx.Valid() {
		ev.TraceID, ev.SpanID = ctx.TraceID, ctx.SpanID
	}
	s.rec.Record(ev)
}

// recordShed emits the server-side wide event for a shed request. Sheds
// never reach the interceptor chain or a handler, so this hook in reject is
// the only place they become observable per-request — the chaos harness's
// tail-capture invariant leans on it.
func (s *Server) recordShed(req *wire.Message, lane Lane, reason string, wait time.Duration) {
	now := s.clock.Now()
	ev := reqlog.Record{
		Time:       now,
		Kind:       reqlog.KindServer,
		Topic:      req.Topic,
		Peer:       req.Src,
		Lane:       lane.String(),
		Outcome:    reqlog.OutcomeShed,
		ShedReason: reason,
		QueueWait:  wait,
	}
	if !req.Deadline.IsZero() {
		ev.HasDeadline = true
		ev.DeadlineSlack = req.Deadline.Sub(now)
	}
	if ctx := trace.Extract(req.Headers); ctx.Valid() {
		ev.TraceID, ev.SpanID = ctx.TraceID, ctx.SpanID
	}
	s.rec.Record(ev)
}

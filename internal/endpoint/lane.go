package endpoint

import "ndsm/internal/wire"

// Lane is a request's admission priority class. Lanes order how a bounded
// server spends its capacity under overload: control traffic is served
// first and shed last, bulk traffic borrows whatever is left and surrenders
// it first. The zero value is LaneDefault, so plain calls are unaffected.
//
// The lane rides in-band as a wire header (HeaderLane), stamped once at the
// endpoint layer — exactly like trace context — so every downstream hop and
// the far server see the same class without out-of-band coordination.
type Lane uint8

const (
	// LaneDefault is ordinary request/reply traffic (the zero value; not
	// stamped on the wire).
	LaneDefault Lane = iota
	// LaneBulk is background traffic — telemetry floods, batch transfers —
	// that sheds first under overload.
	LaneBulk
	// LaneControl is hard-deadline periodic traffic — control loops,
	// actuation — that admission control isolates from bulk load.
	LaneControl

	// NumLanes counts the lane classes (array sizing).
	NumLanes = 3
)

// HeaderLane is the wire header carrying a request's admission lane class
// ("bulk" or "control"; default-lane requests carry no header). On shed
// replies it echoes the lane the shed was charged to.
const HeaderLane = "ndsm-lane"

// rank orders lanes for admission: higher ranks are admitted first from the
// pending queue and shed last. Bulk < default < control.
func (l Lane) rank() int {
	switch l {
	case LaneBulk:
		return 0
	case LaneControl:
		return 2
	default:
		return 1
	}
}

// laneByRank is the inverse of rank, for iterating queues in shed order.
var laneByRank = [NumLanes]Lane{LaneBulk, LaneDefault, LaneControl}

// String returns the lane's wire name.
func (l Lane) String() string {
	switch l {
	case LaneBulk:
		return "bulk"
	case LaneControl:
		return "control"
	default:
		return "default"
	}
}

// ParseLane maps a wire name back to its lane. Unknown names report false
// (callers fall back to LaneDefault — an unrecognized class from a newer
// peer must not be mistaken for control).
func ParseLane(s string) (Lane, bool) {
	switch s {
	case "bulk":
		return LaneBulk, true
	case "control":
		return LaneControl, true
	case "default", "":
		return LaneDefault, true
	}
	return LaneDefault, false
}

// laneHeaderMaps are the shared header maps stamped onto non-default-lane
// requests whose calls carry no headers of their own. They are immutable by
// contract: everything downstream (codecs, transports, observers) treats
// message headers as read-only, and the message pool recycles the struct,
// never the map.
var laneHeaderMaps = [NumLanes]map[string]string{
	0: {HeaderLane: "bulk"},    // LaneBulk.rank()
	2: {HeaderLane: "control"}, // LaneControl.rank()
}

// shedHeaderMaps are the header maps of shed replies, by the rank of the lane
// the shed was charged to: shared and immutable, as laneHeaderMaps are.
var shedHeaderMaps = [NumLanes]map[string]string{
	0: {HeaderShed: "1", HeaderLane: "bulk"},
	1: {HeaderShed: "1", HeaderLane: "default"},
	2: {HeaderShed: "1", HeaderLane: "control"},
}

// laneStamped returns headers carrying the lane class: the shared immutable
// map when the call has no headers (zero allocations), a copy-on-stamp
// otherwise (never mutates the caller's map — it may be shared or reused).
func laneStamped(headers map[string]string, lane Lane) map[string]string {
	if lane == LaneDefault {
		return headers
	}
	if headers == nil {
		return laneHeaderMaps[lane.rank()]
	}
	out := make(map[string]string, len(headers)+1)
	for k, v := range headers {
		out[k] = v
	}
	out[HeaderLane] = lane.String()
	return out
}

// laneOf classifies an inbound request: the in-band header wins; unstamped
// traffic falls back to the server's per-topic classification, then default.
func laneOf(m *wire.Message, topicLanes map[string]Lane) Lane {
	if v, ok := m.Headers[HeaderLane]; ok {
		if l, ok := ParseLane(v); ok {
			return l
		}
		return LaneDefault
	}
	if l, ok := topicLanes[m.Topic]; ok {
		return l
	}
	return LaneDefault
}

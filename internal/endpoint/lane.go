package endpoint

import "ndsm/internal/wire"

// Lane is a request's admission priority class. Lanes order how a bounded
// server spends its capacity under overload: control traffic is served
// first and shed last, bulk traffic borrows whatever is left and surrenders
// it first. The zero value is LaneDefault, so plain calls are unaffected.
//
// The lane rides in-band in the envelope's Priority byte, stamped once at the
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

// priority is l's stamp in wire.Message.Priority: its rank + 1, so that 0
// stays "unstamped".
func (l Lane) priority() uint8 { return uint8(l.rank() + 1) }

// laneOf reads the lane a message was stamped with. The caller decides a
// request's lane, so an unstamped request is one whose caller chose the
// default lane; a stamp past the known lanes, from a newer peer, reads as
// default too.
func laneOf(m *wire.Message) Lane {
	if p := int(m.Priority); p > 0 && p <= NumLanes {
		return laneByRank[p-1]
	}
	return LaneDefault
}

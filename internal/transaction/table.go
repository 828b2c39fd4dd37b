package transaction

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ndsm/internal/qos"
)

// State is a transaction's lifecycle position.
type State int

// Transaction states. A transaction the scheduler moves to a new supplier
// passes through StateHandingOff before returning to StateActive bound to
// the new peer.
const (
	StateActive State = iota + 1
	StateHandingOff
	StateCompleted
	StateAborted
)

var stateNames = [...]string{"?", "active", "handing-off", "completed", "aborted"}

// String returns the state name.
func (s State) String() string {
	if int(s) > 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(?)"
}

// Txn is one managed supplier↔consumer interaction.
type Txn struct {
	// ID is the table-assigned identifier.
	ID uint64
	// Topic names the service the transaction exchanges.
	Topic string
	// Class is the transaction's paper classification.
	Class Class
	// Peer is the current remote endpoint (supplier for a consumer-side
	// record and vice versa).
	Peer string
	// Priority feeds the scheduler (§3.7); higher is more urgent.
	Priority uint8
	// State is the lifecycle position.
	State State
	// OpenedAt records creation time.
	OpenedAt time.Time
	// Handoffs counts how many times the transaction moved to a new peer.
	Handoffs int
	// Tracker measures achieved QoS for the binding.
	Tracker *qos.Tracker
}

// Table errors.
var (
	ErrUnknownTxn = errors.New("transaction: unknown transaction")
	ErrBadState   = errors.New("transaction: invalid state transition")
)

// Table is a node's registry of live transactions: Complete and Abort drop
// the record, so a long-running node holds one per open binding. All
// methods are safe for concurrent use.
type Table struct {
	mu     sync.Mutex
	nextID uint64
	txns   map[uint64]*Txn
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{txns: make(map[uint64]*Txn)}
}

// Open creates an active transaction and returns its record.
func (t *Table) Open(topic, peer string, class Class, priority uint8, benefit qos.Benefit, now time.Time) *Txn {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	txn := &Txn{
		ID:       t.nextID,
		Topic:    topic,
		Class:    class,
		Peer:     peer,
		Priority: priority,
		State:    StateActive,
		OpenedAt: now,
		Tracker:  qos.NewTracker(benefit),
	}
	t.txns[txn.ID] = txn
	return txn
}

// Complete finishes an active or handing-off transaction and drops its
// record.
func (t *Table) Complete(id uint64) error {
	return t.transition(id, StateCompleted, StateActive, StateHandingOff)
}

// Abort fails an active or handing-off transaction and drops its record.
func (t *Table) Abort(id uint64) error {
	return t.transition(id, StateAborted, StateActive, StateHandingOff)
}

// BeginHandoff marks an active transaction as migrating away from its
// current peer (e.g. a mobile supplier predicted to leave range, §3.7).
func (t *Table) BeginHandoff(id uint64) error {
	return t.transition(id, StateHandingOff, StateActive)
}

// CompleteHandoff binds a handing-off transaction to its new peer and
// reactivates it. The QoS tracker resets: achieved QoS is per-binding.
func (t *Table) CompleteHandoff(id uint64, newPeer string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	txn, ok := t.txns[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTxn, id)
	}
	if txn.State != StateHandingOff {
		return fmt.Errorf("%w: %s -> active (handoff)", ErrBadState, txn.State)
	}
	txn.Peer = newPeer
	txn.State = StateActive
	txn.Handoffs++
	txn.Tracker.Reset()
	return nil
}

func (t *Table) transition(id uint64, to State, from ...State) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	txn, ok := t.txns[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTxn, id)
	}
	for _, f := range from {
		if txn.State == f {
			txn.State = to
			if to == StateCompleted || to == StateAborted {
				delete(t.txns, id)
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %s -> %s", ErrBadState, txn.State, to)
}

// ByPeer returns copies of all transactions bound to peer, ordered by ID —
// the set the scheduler must hand off when that peer departs.
func (t *Table) ByPeer(peer string) []Txn {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Txn
	for _, txn := range t.txns {
		if txn.Peer == peer {
			out = append(out, *txn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

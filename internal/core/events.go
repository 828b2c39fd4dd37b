// Package core is the middleware kernel (§3.1): it hosts service suppliers
// and service consumers on a Node, wires discovery, QoS selection,
// transactions, and recovery together, and runs the adaptation loop that
// gives applications plug-and-play behaviour and graceful degradation —
// when a bound supplier fails or its achieved QoS collapses, the kernel
// re-matches and rebinds without application involvement.
package core

import (
	"sync"
)

// EventType classifies kernel events (§3.10: "the middleware should react
// to events from all system components").
type EventType string

// Kernel events.
const (
	// EventServiceUp fires when a local supplier starts serving.
	EventServiceUp EventType = "service-up"
	// EventServiceDown fires when a local supplier is withdrawn.
	EventServiceDown EventType = "service-down"
	// EventBound fires when a consumer binds a supplier.
	EventBound EventType = "bound"
	// EventRebound fires when a binding migrates to a new supplier.
	EventRebound EventType = "rebound"
	// EventBindingLost fires when no feasible supplier remains.
	EventBindingLost EventType = "binding-lost"
	// EventQoSViolated fires when achieved QoS drops below the floor.
	EventQoSViolated EventType = "qos-violated"
	// EventPeerSuspected fires when the liveness layer suspects the bound
	// supplier and the binding rebinds proactively, before any QoS
	// violation reaches the application.
	EventPeerSuspected EventType = "peer-suspected"
)

// Event is one kernel notification.
type Event struct {
	Type EventType
	// Service is the topic/service name involved.
	Service string
	// Peer is the supplier address involved, when applicable.
	Peer string
}

// eventBuffer is each subscriber's queue depth; a slow subscriber misses
// new events rather than stall the publisher.
const eventBuffer = 64

// Bus is the node-local event manager.
type Bus struct {
	mu   sync.Mutex
	subs []chan Event
}

// Subscribe returns a channel of future events.
func (b *Bus) Subscribe() <-chan Event {
	ch := make(chan Event, eventBuffer)
	b.mu.Lock()
	b.subs = append(b.subs, ch)
	b.mu.Unlock()
	return ch
}

// Publish fans an event out to all subscribers without blocking.
func (b *Bus) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ch := range b.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

package endpoint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// LaneTable classifies topics into admission lanes at the caller, so a
// deployment maps its topic space once — in config — instead of touching
// every call site. Exact entries win over prefix rules; among prefix rules
// (entries written with a trailing "*") the longest match wins. Lookup is
// allocation-free: the hot path does one map probe and, only for unmatched
// topics, a scan over the (short, config-sized) rule list.
type LaneTable struct {
	exact    map[string]Lane
	prefixes []prefixRule // sorted longest-first
}

type prefixRule struct {
	prefix string
	lane   Lane
}

// ParseTopicLanes loads a lane table from its JSON form: an object mapping
// topic (or "prefix*") to lane name, e.g.
//
//	{"ctrl/*": "control", "telemetry/report": "bulk", "state/sync": "bulk"}
//
// Unknown lane names, empty patterns, and duplicate patterns are errors —
// a misspelled lane must not silently become default-class traffic.
func ParseTopicLanes(data []byte) (*LaneTable, error) {
	var raw map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("endpoint: topic lanes: %w", err)
	}
	t := &LaneTable{exact: make(map[string]Lane, len(raw))}
	for pattern, name := range raw {
		lane, ok := ParseLane(name)
		if !ok {
			return nil, fmt.Errorf("endpoint: topic lanes: unknown lane %q for %q", name, pattern)
		}
		if pattern == "" {
			return nil, fmt.Errorf("endpoint: topic lanes: empty pattern")
		}
		if strings.HasSuffix(pattern, "*") {
			prefix := strings.TrimSuffix(pattern, "*")
			for _, r := range t.prefixes {
				if r.prefix == prefix {
					return nil, fmt.Errorf("endpoint: topic lanes: duplicate prefix %q", pattern)
				}
			}
			t.prefixes = append(t.prefixes, prefixRule{prefix: prefix, lane: lane})
			continue
		}
		t.exact[pattern] = lane
	}
	// Longest prefix first, so "ctrl/actuate/*" beats "ctrl/*"; ties are
	// impossible (duplicates rejected above).
	sort.Slice(t.prefixes, func(i, j int) bool {
		return len(t.prefixes[i].prefix) > len(t.prefixes[j].prefix)
	})
	return t, nil
}

// Lookup resolves a topic's configured lane. ok=false means the table has
// no opinion (the caller falls through to its default lane).
func (t *LaneTable) Lookup(topic string) (Lane, bool) {
	if t == nil {
		return LaneDefault, false
	}
	if lane, ok := t.exact[topic]; ok {
		return lane, true
	}
	for _, r := range t.prefixes {
		if strings.HasPrefix(topic, r.prefix) {
			return r.lane, true
		}
	}
	return LaneDefault, false
}

// Len reports how many rules the table holds.
func (t *LaneTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.exact) + len(t.prefixes)
}

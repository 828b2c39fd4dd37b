package telemetry

import (
	"sort"

	"ndsm/internal/sketch"
)

// TopicStat is one topic's cluster-merged latency summary: every node's
// per-topic histogram added into one, which is exactly what the sketches'
// mergeability buys — the quantiles below are computed over the union of all
// nodes' samples, not an average of per-node quantiles.
type TopicStat struct {
	Topic string  `json:"topic"`
	Count float64 `json:"count"`
	P50   float64 `json:"p50Ms"`
	P99   float64 `json:"p99Ms"`
}

// mergedDigestsLocked merges every node's newest per-topic digests into one
// digest per topic. Callers hold a.mu.
func (a *Aggregator) mergedDigestsLocked() map[string]*sketch.Hist {
	merged := make(map[string]*sketch.Hist)
	for _, ns := range a.nodes {
		for topic, d := range ns.digests {
			m := merged[topic]
			if m == nil {
				m = new(sketch.Hist)
				merged[topic] = m
			}
			m.Merge(d)
		}
	}
	return merged
}

// TopicQuantile estimates the q-th latency quantile (milliseconds) for one
// topic across the whole cluster by merging every node's digest. The boolean
// is false when no node has reported a digest for the topic — distinct from a
// true 0ms quantile. This is the signal latency-quantile SLO objectives judge.
func (a *Aggregator) TopicQuantile(topic string, q float64) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var m sketch.Hist
	for _, ns := range a.nodes {
		m.Merge(ns.digests[topic]) // a node without the topic has nil: a no-op
	}
	if m.Count() == 0 {
		return 0, false
	}
	return m.Quantile(q), true
}

// TopicStats returns every topic's cluster-merged latency summary, heaviest
// first (ties broken by name). This is the dash attribution panel's data.
func (a *Aggregator) TopicStats() []TopicStat {
	a.mu.Lock()
	merged := a.mergedDigestsLocked()
	a.mu.Unlock()
	return statsFromDigests(merged)
}

func statsFromDigests(merged map[string]*sketch.Hist) []TopicStat {
	out := make([]TopicStat, 0, len(merged))
	for topic, d := range merged {
		if d.Count() == 0 {
			continue
		}
		out = append(out, TopicStat{
			Topic: topic,
			Count: float64(d.Count()),
			P50:   d.Quantile(0.50),
			P99:   d.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Topic < out[j].Topic
	})
	return out
}

// MergedTopK merges every node's topic top-k summary and returns the n
// heaviest topics cluster-wide (n <= 0: all tracked). The space-saving
// guarantee survives the merge: a topic above 1/capacity of cluster traffic
// cannot be missing.
func (a *Aggregator) MergedTopK(n int) []sketch.TopKEntry {
	a.mu.Lock()
	m := a.mergedTopKLocked()
	a.mu.Unlock()
	if m == nil {
		return nil
	}
	if n <= 0 {
		n = m.Len()
	}
	return m.Top(n)
}

func (a *Aggregator) mergedTopKLocked() *sketch.TopK {
	var m *sketch.TopK
	for _, ns := range a.nodes {
		if ns.topk == nil {
			continue
		}
		if m == nil {
			m = sketch.NewTopK(0)
		}
		m.Merge(ns.topk)
	}
	return m
}

package obs

import (
	"math"
	"runtime/metrics"
	"sync"
)

// Runtime gauge names RuntimeGauges maintains.
const (
	// GaugeGoroutines is the live goroutine count.
	GaugeGoroutines = "runtime.goroutines"
	// GaugeHeapBytes is the bytes of live heap objects.
	GaugeHeapBytes = "runtime.heap_bytes"
	// GaugeGCPauseMS is the approximate cumulative GC stop-the-world pause
	// time in milliseconds (bucket-midpoint estimate over the runtime's
	// pause histogram).
	GaugeGCPauseMS = "runtime.gc_pause_total_ms"
)

// runtimeSamples are the runtime/metrics series the gauges sample.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/pauses:seconds",
}

// RuntimeGauges registers Go runtime introspection gauges — goroutine
// count, live heap bytes, cumulative GC pause — in r, sampled through
// runtime/metrics. It samples once immediately and returns the update
// function; call it before taking snapshots (the webbridge calls it per
// /metrics request) to refresh the readings. Sampling on demand instead of
// on a timer keeps idle processes free of a background goroutine. A
// registry has one sampler: every call for r samples and returns the same
// update function, which is safe for concurrent use.
func RuntimeGauges(r *Registry) func() {
	if r == nil {
		return func() {}
	}
	r.runtimeOnce.Do(func() { r.runtime = runtimeSampler(r) })
	r.runtime()
	return r.runtime
}

// runtimeSampler returns a function that reads the runtime series into r's
// three gauges.
func runtimeSampler(r *Registry) func() {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	goroutines := r.Gauge(GaugeGoroutines)
	heapBytes := r.Gauge(GaugeHeapBytes)
	gcPause := r.Gauge(GaugeGCPauseMS)
	var mu sync.Mutex // samples is read into in place
	return func() {
		mu.Lock()
		defer mu.Unlock()
		metrics.Read(samples)
		for _, s := range samples {
			switch s.Name {
			case "/sched/goroutines:goroutines":
				if s.Value.Kind() == metrics.KindUint64 {
					goroutines.Set(float64(s.Value.Uint64()))
				}
			case "/memory/classes/heap/objects:bytes":
				if s.Value.Kind() == metrics.KindUint64 {
					heapBytes.Set(float64(s.Value.Uint64()))
				}
			case "/gc/pauses:seconds":
				if s.Value.Kind() == metrics.KindFloat64Histogram {
					gcPause.Set(histTotal(s.Value.Float64Histogram()) * 1000)
				}
			}
		}
	}
}

// histTotal approximates a runtime histogram's total observed value as
// count × bucket midpoint, clamping the open-ended boundary buckets. The
// runtime only exposes pause durations as a distribution; the midpoint sum
// bounds the error by half a bucket width per observation, plenty for a
// trend gauge.
func histTotal(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var total float64
	for i, count := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		total += float64(count) * (lo + hi) / 2
	}
	return total
}

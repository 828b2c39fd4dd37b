package reqlog

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ndsm/internal/obs"
)

// TestConcurrentRecordSnapshot runs recorders and readers concurrently so
// `go test -race` exercises every lock edge: Record vs Snapshot vs digest
// export vs top-k reads.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New(Options{Capacity: 128, SampleEvery: 2, Registry: obs.NewRegistry()})
	base := time.Unix(1_700_000_000, 0)
	var wg sync.WaitGroup
	const writers, readers, perWriter = 8, 4, 2000

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{
					Time:    base.Add(time.Duration(i) * time.Microsecond),
					Kind:    KindServer,
					Topic:   fmt.Sprintf("topic-%d", i%10),
					Lane:    "default",
					Outcome: OutcomeOK,
					Latency: time.Duration(i%50) * time.Millisecond,
				}
				if i%97 == 0 {
					rec.Outcome = OutcomeShed
					rec.ShedReason = "server at capacity"
				}
				r.Record(rec)
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = r.Snapshot(Filter{Outcome: OutcomeShed, Limit: 16})
				_ = r.TopicDigests()
				_ = r.TopKBinary()
				_ = r.TopK(5)
				_, _ = r.TopicQuantile("topic-1", 0.99)
			}
		}()
	}
	wg.Wait()

	// Totals reconcile: every record landed in exactly one aggregate stream.
	var total uint64
	for _, e := range r.TopK(0) {
		total += e.Count
	}
	if want := uint64(writers * perWriter); total != want {
		t.Errorf("topk total = %d, want %d", total, want)
	}
	tail, healthy := r.Len()
	if tail == 0 || healthy == 0 {
		t.Errorf("rings empty after stress: tail=%d healthy=%d", tail, healthy)
	}
}

// TestSampledOutRecordZeroAllocs pins the E15 overhead claim: once topics
// are warm, a healthy request that the sampler drops costs zero allocations
// end to end (counter, top-k offer, digest add, classification).
func TestSampledOutRecordZeroAllocs(t *testing.T) {
	r := New(Options{
		Capacity:    64,
		SampleEvery: 1 << 30, // never keep → every run is the sampled-out path
		Registry:    obs.NewRegistry(),
	})
	base := time.Unix(1_700_000_000, 0)
	rec := okRecord(base, "warm/topic")
	r.Record(rec) // warm: the topic's histogram and its top-k slot
	i := 0
	if avg := testing.AllocsPerRun(20_000, func() {
		rec.Latency = time.Duration(i%100) * time.Millisecond / 10
		r.Record(rec)
		i++
	}); avg != 0 {
		t.Errorf("sampled-out Record allocates %.3f allocs/op, want 0", avg)
	}
}

// TestKeptRecordCheapAllocs documents the kept path too: a ring write copies
// the record into a preallocated slot, so even kept records stay alloc-free.
func TestKeptRecordCheapAllocs(t *testing.T) {
	r := New(Options{Capacity: 64, SampleEvery: 1, Registry: obs.NewRegistry()})
	base := time.Unix(1_700_000_000, 0)
	rec := okRecord(base, "warm/topic")
	for i := 0; i < 50_000; i++ {
		r.Record(rec)
	}
	if avg := testing.AllocsPerRun(20_000, func() {
		r.Record(rec)
	}); avg != 0 {
		t.Errorf("kept Record allocates %.3f allocs/op, want 0", avg)
	}
}

// TestSlotHoldsNoPointers is why the rings cost the collector nothing: a
// slot type without pointers puts their backing arrays in noscan spans. A
// string, slice, map or interface field added to slot fails here rather than
// as a slow drift in a benchmark.
func TestSlotHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s: the collector would have to read every slot", path, ty.Kind())
		}
	}
	walk("slot", reflect.TypeOf(slot{}))
}

// retainedRecorder is a recorder that keeps every record, warmed one lap past
// both rings' capacity with the traffic nextRetained produces: 16 rotating
// topics, every fourth record shed.
func retainedRecorder() (r *Recorder, next func() Record) {
	r = New(Options{Capacity: 64, SampleEvery: 1, Registry: obs.NewRegistry()})
	topics := make([]string, 16)
	for i := range topics {
		topics[i] = fmt.Sprintf("topic-%d", i)
	}
	at, i := time.Unix(1_700_000_000, 0), 0
	next = func() Record {
		rec := okRecord(at.Add(time.Duration(i)*time.Microsecond), topics[i%len(topics)])
		if i%4 == 3 {
			rec.Outcome, rec.ShedReason = OutcomeShed, "server at capacity"
		}
		i++
		return rec
	}
	for lap := 0; lap < 4*64; lap++ {
		r.Record(next())
	}
	return r, next
}

// TestRecordRetainedZeroAlloc pins the retained path: interning a record's
// six names and releasing the overwritten slot's allocates nothing once the
// names are in the table.
func TestRecordRetainedZeroAlloc(t *testing.T) {
	r, next := retainedRecorder()
	if avg := testing.AllocsPerRun(10_000, func() { r.Record(next()) }); avg != 0 {
		t.Errorf("retained Record allocates %.3f allocs/op, want 0", avg)
	}
	// A one-slot ring overwrites a name's last reference with the same name on
	// every push: held before the old slot's is dropped, it never leaves the
	// table.
	one := ring{buf: make([]slot, 1), names: newNames()}
	rec := okRecord(time.Unix(1_700_000_000, 0), "only/topic")
	one.push(rec)
	if avg := testing.AllocsPerRun(10_000, func() { one.push(rec) }); avg != 0 {
		t.Errorf("overwriting a name with itself allocates %.3f allocs/op, want 0", avg)
	}
}

func BenchmarkRecordRetained(b *testing.B) {
	r, next := retainedRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(next())
	}
}

// BenchmarkCollectWithIdleRecorders times a full collection with two default
// recorders live and nothing else: what a node pays each GC cycle for rings
// nobody is writing or reading. The cache is flushed before each collection,
// untimed, because that is the state a busy node's collector finds the rings
// in, and fetching them is most of what marking them costs.
func BenchmarkCollectWithIdleRecorders(b *testing.B) {
	recs := []*Recorder{
		New(Options{Registry: obs.NewRegistry()}),
		New(Options{Registry: obs.NewRegistry()}),
	}
	flush := make([]byte, 32<<20)
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < len(flush); j += 64 {
			flush[j]++
		}
		b.StartTimer()
		runtime.GC()
	}
	runtime.KeepAlive(recs)
}

package discovery

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/wire"
)

// storeModel is the reference Store is checked against: every lease the
// table holds, expired or not, until a Sweep or an Unregister takes it.
type storeModel struct {
	defaultTTL time.Duration
	leases     map[string]modelLease
}

type modelLease struct {
	desc    *svcdesc.Description // the model's own copy
	expires time.Time
}

func (m *storeModel) ttl(d *svcdesc.Description) time.Duration {
	if d.TTL <= 0 {
		return m.defaultTTL
	}
	return d.TTL
}

func (m *storeModel) register(d *svcdesc.Description, now time.Time) {
	m.leases[d.Key()] = modelLease{desc: d.Clone(), expires: now.Add(m.ttl(d))}
}

func (m *storeModel) unregister(key string) bool {
	_, ok := m.leases[key]
	delete(m.leases, key)
	return ok
}

func (m *storeModel) renew(key string, now time.Time) bool {
	l, ok := m.leases[key]
	if !ok || now.After(l.expires) {
		return false
	}
	l.expires = now.Add(m.ttl(l.desc))
	m.leases[key] = l
	return true
}

func (m *storeModel) sweep(now time.Time) int {
	removed := 0
	for k, l := range m.leases {
		if now.After(l.expires) {
			delete(m.leases, k)
			removed++
		}
	}
	return removed
}

func (m *storeModel) lookup(q *svcdesc.Query, now time.Time) []*svcdesc.Description {
	var keys []string
	for k, l := range m.leases {
		if !now.After(l.expires) && q.Matches(l.desc, now) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*svcdesc.Description, 0, len(keys))
	for _, k := range keys {
		out = append(out, m.leases[k].desc)
	}
	return out
}

// The alphabets operations draw from: few keys, so registrations collide and
// renewals and unregisters find their lease; leases that straddle the clock
// steps, and the store's default (TTL 0).
var (
	modelProviders = []string{"n1", "n2", "n3"}
	modelNames     = []string{"svc", "sensor/bp", "printer"}
	modelTTLs      = []time.Duration{0, time.Millisecond, time.Second, 2 * time.Second, 10 * time.Second}
	modelSteps     = []time.Duration{0, time.Millisecond, 999 * time.Millisecond, time.Second, 3 * time.Second}
	modelQueries   = []string{"", "svc", "sensor/*", "printer", "absent"}
)

// storeOpBytes is the size of one operation; maxStoreOps bounds a sequence.
// Nine keys and five clock steps are reached in a few dozen operations, and
// the fuzzer tries many more short sequences than long ones in its time.
const storeOpBytes, maxStoreOps = 3, 256

// runStoreOps plays data, three bytes an operation, into a Store on a virtual
// clock and into the model: Register through the copying path and through
// the registry server's keep path, Unregister, Renew, Sweep, Lookup by name,
// and the clock moving on. Every result is compared, and after each step the
// table is audited.
func runStoreOps(t *testing.T, data []byte) {
	clk := simtime.NewVirtual(epoch)
	s := NewStore(clk, 5*time.Second)
	srv := &Server{backing: s, store: s} // handleRegister alone: no listener
	m := &storeModel{defaultTTL: 5 * time.Second, leases: make(map[string]modelLease)}
	if len(data) > storeOpBytes*maxStoreOps {
		data = data[:storeOpBytes*maxStoreOps]
	}
	for seq := 0; len(data) >= storeOpBytes; seq, data = seq+1, data[storeOpBytes:] {
		op, a, b := data[0], data[1], data[2]
		d := &svcdesc.Description{
			Name:       modelNames[int(a)%len(modelNames)],
			Provider:   modelProviders[int(a>>2)%len(modelProviders)],
			TTL:        modelTTLs[int(b)%len(modelTTLs)],
			Attributes: map[string]string{"seq": strconv.Itoa(seq)},
		}
		now := clk.Now()
		switch op % 8 {
		case 0: // an in-process caller, who goes on changing its description
			if err := s.Register(d); err != nil {
				t.Fatalf("step %d: Register: %v", seq, err)
			}
			m.register(d, now)
			d.Attributes["seq"] = "changed by the caller"
		case 1: // the registry server, whose request buffer is reused
			payload, err := svcdesc.MarshalDescription(d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.handleRegister(&wire.Message{Payload: payload}); err != nil {
				t.Fatalf("step %d: handleRegister: %v", seq, err)
			}
			m.register(d, now)
			for i := range payload {
				payload[i] = 0xDB
			}
		case 2:
			err := s.Unregister(d.Key())
			if want := m.unregister(d.Key()); (err == nil) != want || err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: Unregister(%s) = %v, model found it: %v", seq, d.Key(), err, want)
			}
		case 3:
			err := s.Renew(d.Key())
			if want := m.renew(d.Key(), now); (err == nil) != want || err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: Renew(%s) = %v, model renewed it: %v", seq, d.Key(), err, want)
			}
		case 4:
			if got, want := s.Sweep(), m.sweep(now); got != want {
				t.Fatalf("step %d: Sweep removed %d, model %d", seq, got, want)
			}
		case 5, 6:
			q := &svcdesc.Query{Name: modelQueries[int(b)%len(modelQueries)]}
			got, err := s.Lookup(q)
			if want := m.lookup(q, now); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Lookup(%q) = %v, %v\nmodel %v", seq, q.Name, descList(got), err, descList(want))
			}
			for _, d := range got { // the caller owns what it was handed
				d.Attributes["seq"] = "changed by the reader"
			}
		case 7:
			clk.Advance(modelSteps[int(b)%len(modelSteps)])
		}
		auditStore(t, seq, s, m)
	}
}

// auditStore compares what the table holds with the model and checks the
// sweep bound: no held lease, expired or not, ends before soonest.
func auditStore(t *testing.T, seq int, s *Store, m *storeModel) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) != len(m.leases) {
		t.Fatalf("step %d: table holds %d leases, model %d", seq, len(s.entries), len(m.leases))
	}
	for k, e := range s.entries {
		if l, ok := m.leases[k]; !ok || !e.expires.Equal(l.expires) {
			t.Fatalf("step %d: %s expires %v, model %v (held %v)", seq, k, e.expires, l.expires, ok)
		}
		if e.expires.Before(s.soonest) {
			t.Fatalf("step %d: %s expires %v, before the sweep bound %v", seq, k, e.expires, s.soonest)
		}
	}
}

func descList(ds []*svcdesc.Description) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Key() + " seq=" + d.Attributes["seq"]
	}
	return out
}

// FuzzStoreMatchesModel model-checks Store: its leases, its sweep bound and
// the ownership of what goes in and comes out.
func FuzzStoreMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 7, 0, 3, 4, 0, 0, 5, 0, 0})
	f.Add([]byte{1, 4, 1, 1, 0, 3, 7, 0, 4, 4, 0, 0, 5, 0, 1, 3, 4, 0, 7, 0, 2, 4, 0, 0})
	f.Add([]byte{0, 0, 2, 7, 0, 1, 3, 0, 0, 7, 0, 3, 4, 0, 0, 2, 0, 0, 4, 0, 0})
	f.Fuzz(runStoreOps)
}

// TestStoreMatchesModelProperty runs the same check over seeded random
// operation lists, so a plain `go test` covers what the fuzzer explores.
func TestStoreMatchesModelProperty(t *testing.T) {
	sequences := 1000
	if testing.Short() {
		sequences = 100
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < sequences; i++ {
		data := make([]byte, storeOpBytes*rng.Intn(120))
		rng.Read(data)
		runStoreOps(t, data)
	}
}

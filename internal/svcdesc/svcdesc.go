// Package svcdesc defines the middleware's service description language:
// how suppliers describe what they offer, how consumers describe what they
// need, and the matching engine that pairs the two.
//
// Per §3.3 of the paper, descriptions serialize to a markup form (XML) so
// matching criteria survive crossing language and middleware boundaries, and
// the matcher understands both exact and sophisticated criteria — typed
// attribute constraints, wildcards, reliability floors, and a password gate
// (security folded into the matching protocol rather than the transport).
package svcdesc

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Location is a physical position used for spatial QoS ("nearest best
// matched printer", §3.4).
type Location struct {
	X float64
	Y float64
}

// Distance returns the Euclidean distance to another location.
func (l Location) Distance(o Location) float64 {
	return math.Hypot(l.X-o.X, l.Y-o.Y)
}

// Description is a supplier's advertisement of one service.
type Description struct {
	// Name is the service type, e.g. "printer" or "sensor/bloodpressure".
	Name string
	// Provider is the transport address of the supplying node.
	Provider string
	// InstanceID distinguishes multiple instances of the same service type
	// on the same provider.
	InstanceID string
	// Version is a dotted version string, compared numerically per part.
	Version string
	// Attributes carries free-form typed metadata (values compared
	// numerically when both sides parse as numbers).
	Attributes map[string]string
	// Interfaces lists operation names the service implements.
	Interfaces []string
	// Reliability is the supplier's advertised delivery reliability in
	// [0,1] — part of supplier-side QoS (§3.4).
	Reliability float64
	// PowerLevel is the supplier's remaining energy fraction in [0,1]
	// (battery-powered suppliers degrade; consumers may demand a floor).
	PowerLevel float64
	// AvailableFrom/AvailableUntil bound the service's availability window
	// (zero values mean unbounded).
	AvailableFrom  time.Time
	AvailableUntil time.Time
	// PasswordHash, when non-empty, demands that queries present the
	// matching password (hex SHA-256).
	PasswordHash string
	// Location is the supplier's physical position, if known.
	Location *Location
	// TTL is the advertisement's lease duration; registries expire entries
	// after TTL (0 means the registry default).
	TTL time.Duration
}

// Key returns the registry identity of the advertisement.
func (d *Description) Key() string {
	return d.Provider + "|" + d.Name + "|" + d.InstanceID
}

// KeyHash is the stable 64-bit hash of an advertisement key, the value
// sharded registries place on their consistent-hash ring: FNV-1a over the
// key bytes. The function is pinned by test: it must never change, because
// every member of a registry cluster (and every client routing writes to
// shard owners) derives placement from it — two builds disagreeing on the
// hash would scatter one service's advertisement across disjoint owner sets.
func KeyHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// HashPassword returns the hex SHA-256 of a plaintext password, the format
// stored in PasswordHash.
func HashPassword(plain string) string {
	sum := sha256.Sum256([]byte(plain))
	return hex.EncodeToString(sum[:])
}

// Validate checks structural invariants.
func (d *Description) Validate() error {
	if d == nil {
		return errors.New("svcdesc: nil description")
	}
	if d.Name == "" {
		return errors.New("svcdesc: description needs a Name")
	}
	if d.Provider == "" {
		return errors.New("svcdesc: description needs a Provider")
	}
	if d.Reliability < 0 || d.Reliability > 1 {
		return fmt.Errorf("svcdesc: reliability %v outside [0,1]", d.Reliability)
	}
	if d.PowerLevel < 0 || d.PowerLevel > 1 {
		return fmt.Errorf("svcdesc: power level %v outside [0,1]", d.PowerLevel)
	}
	return nil
}

// Clone returns a deep copy.
func (d *Description) Clone() *Description {
	if d == nil {
		return nil
	}
	out := *d
	if d.Attributes != nil {
		out.Attributes = make(map[string]string, len(d.Attributes))
		for k, v := range d.Attributes {
			out.Attributes[k] = v
		}
	}
	out.Interfaces = append([]string(nil), d.Interfaces...)
	if d.Location != nil {
		loc := *d.Location
		out.Location = &loc
	}
	return &out
}

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains
	OpExists
)

var opNames = [...]string{"?", "eq", "ne", "lt", "le", "gt", "ge", "contains", "exists"}

// String returns the operator's mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && o > 0 {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// OpFromString parses an operator mnemonic.
func OpFromString(s string) (Op, error) {
	for i := 1; i < len(opNames); i++ {
		if opNames[i] == s {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("svcdesc: unknown operator %q", s)
}

// Constraint is one attribute predicate in a query.
type Constraint struct {
	Attr  string
	Op    Op
	Value string
}

// Matches evaluates the constraint against an attribute map.
func (c Constraint) Matches(attrs map[string]string) bool {
	got, ok := attrs[c.Attr]
	if c.Op == OpExists {
		return ok
	}
	if !ok {
		return false
	}
	// Numeric comparison when both sides parse; string comparison otherwise.
	gn, gerr := strconv.ParseFloat(got, 64)
	wn, werr := strconv.ParseFloat(c.Value, 64)
	numeric := gerr == nil && werr == nil
	switch c.Op {
	case OpEq:
		if numeric {
			return gn == wn
		}
		return got == c.Value
	case OpNe:
		if numeric {
			return gn != wn
		}
		return got != c.Value
	case OpLt:
		if numeric {
			return gn < wn
		}
		return got < c.Value
	case OpLe:
		if numeric {
			return gn <= wn
		}
		return got <= c.Value
	case OpGt:
		if numeric {
			return gn > wn
		}
		return got > c.Value
	case OpGe:
		if numeric {
			return gn >= wn
		}
		return got >= c.Value
	case OpContains:
		return strings.Contains(got, c.Value)
	default:
		return false
	}
}

// Query is a consumer's service request.
type Query struct {
	// Name selects the service type; a trailing "*" makes it a prefix
	// pattern ("sensor/*").
	Name string
	// MinVersion, when non-empty, requires Version >= MinVersion
	// (dotted-numeric comparison).
	MinVersion string
	// Constraints must all hold on the description's attributes.
	Constraints []Constraint
	// RequireInterfaces lists operations the service must implement.
	RequireInterfaces []string
	// MinReliability and MinPower are supplier QoS floors.
	MinReliability float64
	MinPower       float64
	// Password is the plaintext credential presented against
	// PasswordHash-protected services.
	Password string
	// Near, with MaxDistance > 0, constrains suppliers spatially.
	Near        *Location
	MaxDistance float64
}

// Matches reports whether the description satisfies every criterion of the
// query, evaluated at time now (for the availability window).
func (q *Query) Matches(d *Description, now time.Time) bool {
	if d == nil || q == nil {
		return false
	}
	if !nameMatches(q.Name, d.Name) {
		return false
	}
	if q.MinVersion != "" && CompareVersions(d.Version, q.MinVersion) < 0 {
		return false
	}
	if d.Reliability < q.MinReliability {
		return false
	}
	if d.PowerLevel < q.MinPower {
		return false
	}
	if !d.AvailableFrom.IsZero() && now.Before(d.AvailableFrom) {
		return false
	}
	if !d.AvailableUntil.IsZero() && now.After(d.AvailableUntil) {
		return false
	}
	if d.PasswordHash != "" && HashPassword(q.Password) != d.PasswordHash {
		return false
	}
	for _, c := range q.Constraints {
		if !c.Matches(d.Attributes) {
			return false
		}
	}
	for _, want := range q.RequireInterfaces {
		if !containsString(d.Interfaces, want) {
			return false
		}
	}
	if q.Near != nil && q.MaxDistance > 0 {
		if d.Location == nil {
			return false
		}
		if d.Location.Distance(*q.Near) > q.MaxDistance {
			return false
		}
	}
	return true
}

// nameMatches implements exact and trailing-* prefix matching.
func nameMatches(pattern, name string) bool {
	if pattern == "" || pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(name, strings.TrimSuffix(pattern, "*"))
	}
	return pattern == name
}

func containsString(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// CompareVersions compares dotted version strings numerically per part,
// returning -1, 0, or 1. Missing parts count as zero; non-numeric parts
// compare as strings.
func CompareVersions(a, b string) int {
	as := strings.Split(a, ".")
	bs := strings.Split(b, ".")
	n := len(as)
	if len(bs) > n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		av, bv := "0", "0"
		if i < len(as) {
			av = as[i]
		}
		if i < len(bs) {
			bv = bs[i]
		}
		an, aerr := strconv.Atoi(av)
		bn, berr := strconv.Atoi(bv)
		if aerr == nil && berr == nil {
			if an != bn {
				if an < bn {
					return -1
				}
				return 1
			}
			continue
		}
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Filter returns the descriptions matching q, preserving order.
func Filter(descs []*Description, q *Query, now time.Time) []*Description {
	var out []*Description
	for _, d := range descs {
		if q.Matches(d, now) {
			out = append(out, d)
		}
	}
	return out
}

// SortByDistance orders descriptions by distance from loc (unknown locations
// last), stably.
func SortByDistance(descs []*Description, loc Location) {
	sort.SliceStable(descs, func(i, j int) bool {
		di, dj := descs[i].Location, descs[j].Location
		switch {
		case di == nil && dj == nil:
			return false
		case di == nil:
			return false
		case dj == nil:
			return true
		default:
			return di.Distance(loc) < dj.Distance(loc)
		}
	})
}

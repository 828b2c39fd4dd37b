package svcdesc

import (
	"encoding/xml"
	"math"
	"testing"
	"time"
)

// FuzzMatch drives Query.Matches, Constraint.Matches, Filter and
// CompareVersions with arbitrary strings and operators. None may panic, and
// a few algebraic properties must hold regardless of input:
//
//   - CompareVersions is reflexive and antisymmetric;
//   - a query naming exactly the description's name (with no other
//     criteria) always matches an unconstrained description;
//   - an OpExists constraint matches iff the attribute is present;
//   - a reliability floor above the description's reliability never matches.
func FuzzMatch(f *testing.F) {
	f.Add("printer", "printer/*", "1.2", "color", byte(1), "true", 0.5, "secret")
	f.Add("sensor/bp", "sensor/*", "2.0.1", "rate", byte(5), "9.5", 0.9, "")
	f.Add("", "*", "", "", byte(8), "", 0.0, "pw")
	f.Add("a", "b", "x.y.z", "attr", byte(200), "1e308", -1.5, "\x00\xff")
	f.Add("svc", "svc", "1.0", "n", byte(3), "NaN", 0.25, "p")

	f.Fuzz(func(t *testing.T, name, qname, version, attr string, op byte, value string, minRel float64, password string) {
		now := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
		d := &Description{
			Name:        name,
			Provider:    "fuzz",
			Version:     version,
			Reliability: 0.8,
			PowerLevel:  1,
			Attributes:  map[string]string{attr: value},
			Location:    &Location{X: 1, Y: 2},
		}
		q := &Query{
			Name:           qname,
			MinVersion:     version,
			Constraints:    []Constraint{{Attr: attr, Op: Op(op), Value: value}},
			MinReliability: minRel,
			Password:       password,
			Near:           &Location{X: 3, Y: 4},
			MaxDistance:    100,
		}
		q.Matches(d, now)                      // must not panic
		q.Matches(nil, now)                    // nil description
		(&Query{}).Matches(d, now)             // empty query
		Filter([]*Description{d, nil}, q, now) // nil entries tolerated
		Filter(nil, q, now)

		if got := CompareVersions(version, version); got != 0 {
			t.Fatalf("CompareVersions(%q, %q) = %d, want 0", version, version, got)
		}
		if ab, ba := CompareVersions(version, name), CompareVersions(name, version); ab != -ba {
			t.Fatalf("CompareVersions antisymmetry broken: (%q,%q)=%d but (%q,%q)=%d",
				version, name, ab, name, version, ba)
		}

		exists := Constraint{Attr: attr, Op: OpExists}
		if got := exists.Matches(d.Attributes); !got {
			t.Fatalf("OpExists on present attribute %q = false", attr)
		}
		if got := exists.Matches(nil); got {
			t.Fatalf("OpExists on empty attributes = true for %q", attr)
		}

		exact := &Query{Name: name}
		if !exact.Matches(d, now) {
			t.Fatalf("exact-name query %q failed to match its own description", name)
		}

		if minRel > d.Reliability {
			floor := &Query{Name: name, MinReliability: minRel}
			if floor.Matches(d, now) {
				t.Fatalf("reliability floor %v matched description with reliability %v", minRel, d.Reliability)
			}
		}
	})
}

// FuzzDescriptionXML holds the decoder to its contract on arbitrary bytes:
// it either declines, or encoding/xml accepts the same bytes and
// descriptionFromXML makes of them the same description, or the same error.
// The public readers must not panic on anything, and whatever they accept the
// writer must turn back into something the decoder itself takes.
func FuzzDescriptionXML(f *testing.F) {
	full := printerDesc()
	full.AvailableFrom, full.PasswordHash = now, "h&sh"
	for _, d := range []*Description{full, {Name: "x", Provider: "p"}, allocDesc()} {
		doc, err := MarshalDescription(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		f.Add(append(append([]byte("<services>"), doc...), "</services>"...))
	}
	for _, doc := range declined {
		f.Add([]byte(doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if got, ok, gerr := scanDescription(data); ok {
			var ref xmlDescription
			if err := xml.Unmarshal(data, &ref); err != nil {
				t.Fatalf("decoder took %q, encoding/xml refuses it: %v", data, err)
			}
			want, werr := descriptionFromXML(ref)
			if !sameOutcome(gerr, werr) || !sameDescription(got, want) {
				t.Fatalf("%q:\ndecoder      %+v, %v\nencoding/xml %+v, %v", data, got, gerr, want, werr)
			}
		}
		if got, ok, gerr := scanDescriptionList(data); ok {
			want, werr := referenceUnmarshalList(data)
			if !sameOutcome(gerr, werr) || !sameDescriptions(got, want) {
				t.Fatalf("list %q:\ndecoder      %v, %v\nencoding/xml %v, %v", data, got, gerr, want, werr)
			}
		}

		d, err := UnmarshalDescription(data)
		if err != nil {
			return
		}
		out, err := MarshalDescription(d)
		if err != nil {
			t.Fatalf("%q parsed to %+v, which does not marshal: %v", data, d, err)
		}
		if _, ok, _ := scanDescription(out); !ok {
			t.Fatalf("decoder declined the writer's output %q", out)
		}
	})
}

// sameOutcome reports whether two readers failed alike: both not at all, or
// both with the same message.
func sameOutcome(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// FuzzQueryMarshal holds the query writer to xml.Marshal, byte for byte, on
// any field values.
func FuzzQueryMarshal(f *testing.F) {
	f.Add("sensor/*", "1.2", 0.5, 0.0, "pw", true, 1.5, -2.0, 10.0, "rate", byte(5), "9.5", "read")
	f.Add("", "", 0.0, 0.0, "", false, 0.0, 0.0, 0.0, "", byte(0), "", "")
	f.Add("a<b", "\xff\n", math.NaN(), math.Inf(-1), "&#34;", true, math.Copysign(0, -1), 1e21, 1e-7, "k\"", byte(200), "]]>", "\ufffe")

	f.Fuzz(func(t *testing.T, name, minVersion string, minRel, minPower float64, password string,
		near bool, x, y, maxDist float64, attr string, op byte, value, iface string) {
		q := &Query{
			Name: name, MinVersion: minVersion, MinReliability: minRel, MinPower: minPower,
			Password: password, MaxDistance: maxDist,
			Constraints:       []Constraint{{Attr: attr, Op: Op(op % 10), Value: value}, {Attr: value, Op: OpExists}},
			RequireInterfaces: []string{iface, name},
		}
		if near {
			q.Near = &Location{X: x, Y: y}
		}
		checkQuery(t, q)
	})
}

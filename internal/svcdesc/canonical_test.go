package svcdesc

import (
	"encoding/xml"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// referenceMarshal is MarshalDescription as it was before the hand-written
// writer: the xmlDescription conversion handed to xml.Marshal. It is what a
// peer built from an older commit puts on the wire.
func referenceMarshal(d *Description) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	x := xmlDescription{
		Name:        d.Name,
		Provider:    d.Provider,
		InstanceID:  d.InstanceID,
		Version:     d.Version,
		Reliability: d.Reliability,
		PowerLevel:  d.PowerLevel,
		Password:    d.PasswordHash,
		TTLMillis:   d.TTL.Milliseconds(),
		Interfaces:  d.Interfaces,
	}
	if !d.AvailableFrom.IsZero() {
		x.From = d.AvailableFrom.UTC().Format(time.RFC3339Nano)
	}
	if !d.AvailableUntil.IsZero() {
		x.Until = d.AvailableUntil.UTC().Format(time.RFC3339Nano)
	}
	if d.Location != nil {
		x.Location = &xmlPoint{X: d.Location.X, Y: d.Location.Y}
	}
	for _, k := range sortedKeys(d.Attributes) {
		x.Attributes = append(x.Attributes, xmlAttr{Key: k, Value: d.Attributes[k]})
	}
	return xml.Marshal(x)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// referenceUnmarshal is UnmarshalDescription without the scanner: the reader
// of an older commit, and the one that takes XML this tree did not write.
func referenceUnmarshal(data []byte) (*Description, error) {
	var x xmlDescription
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, err
	}
	return descriptionFromXML(x)
}

func referenceUnmarshalList(data []byte) ([]*Description, error) {
	var list xmlDescriptionList
	if err := xml.Unmarshal(data, &list); err != nil {
		return nil, err
	}
	out := make([]*Description, 0, len(list.Items))
	for _, x := range list.Items {
		d, err := descriptionFromXML(x)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// sameDescription is reflect.DeepEqual with NaN equal to NaN: the codec
// carries NaN (Validate lets it through), and DeepEqual would call two
// identical results different.
func sameDescription(a, b *Description) bool {
	if a == nil || b == nil {
		return a == b
	}
	ca, cb := *a, *b
	for _, p := range [][2]*float64{{&ca.Reliability, &cb.Reliability}, {&ca.PowerLevel, &cb.PowerLevel}} {
		if math.Float64bits(*p[0]) != math.Float64bits(*p[1]) {
			return false
		}
		*p[0], *p[1] = 0, 0
	}
	if (ca.Location == nil) != (cb.Location == nil) {
		return false
	}
	if ca.Location != nil {
		if math.Float64bits(ca.Location.X) != math.Float64bits(cb.Location.X) ||
			math.Float64bits(ca.Location.Y) != math.Float64bits(cb.Location.Y) {
			return false
		}
		ca.Location, cb.Location = nil, nil
	}
	return reflect.DeepEqual(ca, cb)
}

func sameDescriptions(a, b []*Description) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameDescription(a[i], b[i]) {
			return false
		}
	}
	return true
}

// hostileStrings are the pieces genHostile builds strings from: everything
// the escaper treats specially, and what it replaces.
var hostileStrings = []string{
	"", "a", "printer", "10.0.0.7:7000", "sensor/bp", " ", "  x  ",
	"<", ">", "&", `"`, "'", "\t", "\n", "\r", "\r\n", "]]>", "&amp;", "&#34;", "<!--", "<![CDATA[",
	"é", "日本", "\u00a0", "\u0085", "\ufffd", "\ufffe", "\uffff", "\U0001F600", "\x7f",
	"\xff", "\xc3", "\xed\xa0\x80", "\x00", "\x01", "\x1f",
}

func genHostile(r *rand.Rand) string {
	var s string
	for n := r.Intn(4); n >= 0; n-- {
		s += hostileStrings[r.Intn(len(hostileStrings))]
	}
	return s
}

var hostileFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	0.1, 0.5, 0.95, 1, 1e-7, 1e21, 123456789.125, -3.5, math.MaxFloat64, math.Inf(1), math.Inf(-1),
}

func genFloat(r *rand.Rand) float64 {
	if r.Intn(3) == 0 {
		return r.Float64()
	}
	return hostileFloats[r.Intn(len(hostileFloats))]
}

func genTime(r *rand.Rand) time.Time {
	switch r.Intn(4) {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(r.Int63n(4e9), 0).In(time.FixedZone("east", 5*3600+1800))
	case 2:
		return time.Date(r.Intn(12000)-1000, 2, 29, 23, 59, 60, r.Intn(1e9), time.UTC)
	default:
		return time.Unix(r.Int63n(4e9), r.Int63n(1e9))
	}
}

// genHostileDescription draws every optional field present or absent and
// fills strings, floats and times from the awkward ends of their types. About
// one in ten does not validate, so the error path is compared too.
func genHostileDescription(r *rand.Rand) *Description {
	d := &Description{Name: "n" + genHostile(r), Provider: "p" + genHostile(r)}
	if r.Intn(20) == 0 {
		d.Name = ""
	}
	if r.Intn(2) == 0 {
		d.InstanceID = genHostile(r)
	}
	if r.Intn(2) == 0 {
		d.Version = genHostile(r)
	}
	if r.Intn(2) == 0 {
		d.Reliability = genFloat(r)
	}
	if r.Intn(2) == 0 {
		d.PowerLevel = genFloat(r)
	}
	d.AvailableFrom, d.AvailableUntil = genTime(r), genTime(r)
	if r.Intn(3) == 0 {
		d.PasswordHash = genHostile(r)
	}
	if r.Intn(2) == 0 {
		d.Location = &Location{X: genFloat(r), Y: genFloat(r)}
	}
	switch r.Intn(4) {
	case 0:
		d.TTL = time.Duration(r.Int63n(int64(time.Hour)))
	case 1:
		d.TTL = time.Duration(r.Int63()) - time.Duration(r.Int63())
	case 2:
		d.TTL = time.Duration(r.Intn(int(time.Millisecond))) // under a millisecond: omitted
	}
	if n := r.Intn(4); n > 0 {
		d.Attributes = make(map[string]string, n)
		for ; n > 0; n-- {
			d.Attributes[genHostile(r)] = genHostile(r)
		}
	}
	for n := r.Intn(3); n > 0; n-- {
		d.Interfaces = append(d.Interfaces, genHostile(r))
	}
	return d
}

// The writer is xml.Marshal, byte for byte, and everything it writes the
// scanner takes itself and reads as encoding/xml does. The four assertions
// are also the two directions of running against a peer from before this
// codec: its bytes are ours (so our reader takes them), and its reader —
// referenceUnmarshal — makes of our bytes what our reader does.
func TestCanonicalWriterMatchesEncodingXML(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var batch []*Description
	for i := 0; i < n; i++ {
		d := genHostileDescription(r)
		want, werr := referenceMarshal(d)
		got, gerr := MarshalDescription(d)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%+v: writer error %v, xml.Marshal error %v", d, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("%+v:\nwriter      %q\nxml.Marshal %q", d, got, want)
		}

		scanned, ok, serr := scanDescription(got)
		if !ok {
			t.Fatalf("scanner declined the writer's own output %q", got)
		}
		ref, rerr := referenceUnmarshal(want)
		if (serr == nil) != (rerr == nil) || !sameDescription(scanned, ref) {
			t.Fatalf("%q:\nscanner      %+v, %v\nencoding/xml %+v, %v", got, scanned, serr, ref, rerr)
		}
		public, perr := UnmarshalDescription(want)
		if (perr == nil) != (rerr == nil) || !sameDescription(public, ref) {
			t.Fatalf("%q:\nUnmarshalDescription %+v, %v\nencoding/xml         %+v, %v", want, public, perr, ref, rerr)
		}

		if rerr == nil {
			batch = append(batch, d)
		}
		if len(batch) == 5 || i == n-1 {
			checkList(t, batch)
			batch = batch[:0]
		}
	}
	checkList(t, nil)
}

func checkList(t *testing.T, descs []*Description) {
	t.Helper()
	got, err := MarshalDescriptionList(descs)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("<services>")
	for _, d := range descs {
		item, err := referenceMarshal(d)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, item...)
	}
	want = append(want, "</services>"...)
	if string(got) != string(want) {
		t.Fatalf("list:\nwriter    %q\nreference %q", got, want)
	}
	items, ok, _ := scanDescriptionList(got)
	if !ok || len(items) != len(descs) {
		t.Fatalf("list scanner declined the writer's own output (%d of %d) %q", len(items), len(descs), got)
	}
	public, perr := UnmarshalDescriptionList(got)
	ref, rerr := referenceUnmarshalList(got)
	if perr != nil || rerr != nil || !sameDescriptions(public, ref) {
		t.Fatalf("list %q:\nUnmarshalDescriptionList %v, %v\nencoding/xml             %v, %v", got, public, perr, ref, rerr)
	}
}

// The canonical form, spelled out: a change to it — here or in a future
// encoding/xml — is a change to the wire, and this fails before a mixed
// deployment finds out.
func TestCanonicalGolden(t *testing.T) {
	d := printerDesc()
	d.AvailableFrom = now
	d.AvailableUntil = now.Add(90*time.Minute + 5*time.Nanosecond)
	d.PasswordHash = "ab&cd"
	d.Attributes["note"] = "a<b \"q\"\n"
	const want = `<service name="printer" provider="node-7" instance="lobby" version="2.1" reliability="0.95" power="1">` +
		`<availableFrom>2003-06-01T12:00:00Z</availableFrom><availableUntil>2003-06-01T13:30:00.000000005Z</availableUntil>` +
		`<passwordHash>ab&amp;cd</passwordHash><location x="10" y="20"></location><ttlMillis>60000</ttlMillis>` +
		`<attr key="color">true</attr><attr key="note">a&lt;b &#34;q&#34;&#xA;</attr><attr key="paper">A4,Letter</attr><attr key="ppm">30</attr>` +
		`<interface>print</interface><interface>status</interface></service>`
	got, err := MarshalDescription(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("canonical form changed:\ngot  %s\nwant %s", got, want)
	}
	back, err := UnmarshalDescription(got)
	if err != nil || !sameDescription(back, d) {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	if min, _ := MarshalDescription(&Description{Name: "x", Provider: "p"}); string(min) != `<service name="x" provider="p"></service>` {
		t.Fatalf("minimal form changed: %s", min)
	}
}

// What the scanner must hand to encoding/xml, each with the reason. Every one
// of these is well-formed enough for encoding/xml to have an opinion; the
// scanner has none.
var declined = map[string]string{
	"entity the writer does not emit": `<service name="a&quot;b" provider="p"></service>`,
	"decimal reference":               `<service name="&#65;" provider="p"></service>`,
	"CDATA":                           `<service name="a" provider="p"><attr key="k"><![CDATA[v]]></attr></service>`,
	"comment":                         `<service name="a" provider="p"><!-- c --></service>`,
	"prefixed name":                   `<x:service xmlns:x="u" name="a" provider="p"></x:service>`,
	"namespace attribute":             `<service xmlns="u" name="a" provider="p"></service>`,
	"duplicate attribute":             `<service name="a" name="b" provider="p"></service>`,
	"attributes in another order":     `<service provider="p" name="a"></service>`,
	"unknown attribute":               `<service name="a" provider="p" colour="red"></service>`,
	"single quotes":                   `<service name='a' provider='p'></service>`,
	"whitespace between children":     "<service name=\"a\" provider=\"p\">\n<interface>i</interface>\n</service>",
	"whitespace in a tag":             `<service  name="a" provider="p"></service>`,
	"unknown child":                   `<service name="a" provider="p"><colour>red</colour></service>`,
	"children in another order":       `<service name="a" provider="p"><interface>i</interface><attr key="k">v</attr></service>`,
	"child twice":                     `<service name="a" provider="p"><ttlMillis>1</ttlMillis><ttlMillis>2</ttlMillis></service>`,
	"self-closing":                    `<service name="a" provider="p"/>`,
	"self-closing location":           `<service name="a" provider="p"><location x="1" y="2"/></service>`,
	"padded float":                    `<service name="a" provider="p" reliability=" 1"></service>`,
	"empty float":                     `<service name="a" provider="p" reliability=""></service>`,
	"float out of range":              `<service name="a" provider="p" power="1e999"></service>`,
	"padded integer":                  `<service name="a" provider="p"><ttlMillis> 5 </ttlMillis></service>`,
	"raw newline in a value":          "<service name=\"a\nb\" provider=\"p\"></service>",
	"raw carriage return":             "<service name=\"a\" provider=\"p\"><interface>a\rb</interface></service>",
	"raw > in text":                   `<service name="a" provider="p"><interface>a]]>b</interface></service>`,
	"invalid UTF-8":                   "<service name=\"a\xff\" provider=\"p\"></service>",
	"U+FFFE":                          "<service name=\"a\ufffe\" provider=\"p\"></service>",
	"prolog":                          `<?xml version="1.0"?><service name="a" provider="p"></service>`,
	"leading space":                   ` <service name="a" provider="p"></service>`,
	"trailing bytes":                  `<service name="a" provider="p"></service> `,
	"truncated":                       `<service name="a" provider="p"><interface>pri`,
	"truncated reference":             `<service name="a&am`,
	"empty":                           ``,
	"a list":                          `<services><service name="a" provider="p"></service></services>`,
}

func TestScannerDeclines(t *testing.T) {
	for why, doc := range declined {
		if x, ok, _ := scanDescription([]byte(doc)); ok {
			t.Errorf("%s: scanner took %q as %+v", why, doc, x)
		}
		list := "<services>" + doc + "</services>"
		if items, ok, _ := scanDescriptionList([]byte(list)); ok && doc != "" {
			t.Errorf("%s: list scanner took %q as %+v", why, list, items)
		}
		// Declining is not failing: the public reader still answers as
		// encoding/xml does.
		got, gerr := UnmarshalDescription([]byte(doc))
		want, werr := referenceUnmarshal([]byte(doc))
		if (gerr == nil) != (werr == nil) || !sameDescription(got, want) {
			t.Errorf("%s: UnmarshalDescription %+v, %v; encoding/xml %+v, %v", why, got, gerr, want, werr)
		}
	}
	for _, list := range []string{
		`<services>`, `<services></services> `, `<services><service name="a" provider="p"></service>`,
		"<services>\n</services>", `<services/>`, `<services></service></services>`,
	} {
		if items, ok, _ := scanDescriptionList([]byte(list)); ok {
			t.Errorf("list scanner took %q as %+v", list, items)
		}
	}
}

// referenceMarshalQuery is MarshalQuery as it was before the hand-written
// writer.
func referenceMarshalQuery(q *Query) ([]byte, error) {
	x := xmlQuery{
		Name:           q.Name,
		MinVersion:     q.MinVersion,
		MinReliability: q.MinReliability,
		MinPower:       q.MinPower,
		Password:       q.Password,
		MaxDistance:    q.MaxDistance,
		Interfaces:     q.RequireInterfaces,
	}
	if q.Near != nil {
		x.Near = &xmlPoint{X: q.Near.X, Y: q.Near.Y}
	}
	for _, c := range q.Constraints {
		x.Constraints = append(x.Constraints, xmlConstraint{Attr: c.Attr, Op: c.Op.String(), Value: c.Value})
	}
	return xml.Marshal(x)
}

// checkQuery requires MarshalQuery to write what xml.Marshal writes: a cache
// key, a flood message and a lookup request stay the bytes they were.
func checkQuery(t *testing.T, q *Query) {
	t.Helper()
	got, err := MarshalQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := referenceMarshalQuery(q)
	if werr != nil {
		t.Fatalf("%+v: xml.Marshal error %v", q, werr)
	}
	if string(got) != string(want) {
		t.Fatalf("%+v:\nwriter      %q\nxml.Marshal %q", q, got, want)
	}
}

// genHostileQuery draws every optional field present or absent, from the same
// awkward values as genHostileDescription, and operators valid or not.
func genHostileQuery(r *rand.Rand) *Query {
	q := &Query{}
	if r.Intn(3) > 0 {
		q.Name = genHostile(r)
	}
	if r.Intn(2) == 0 {
		q.MinVersion = genHostile(r)
	}
	if r.Intn(2) == 0 {
		q.MinReliability = genFloat(r)
	}
	if r.Intn(2) == 0 {
		q.MinPower = genFloat(r)
	}
	if r.Intn(3) == 0 {
		q.Password = genHostile(r)
	}
	if r.Intn(2) == 0 {
		q.Near = &Location{X: genFloat(r), Y: genFloat(r)}
	}
	if r.Intn(2) == 0 {
		q.MaxDistance = genFloat(r)
	}
	for n := r.Intn(4); n > 0; n-- {
		q.Constraints = append(q.Constraints, Constraint{Attr: genHostile(r), Op: Op(r.Intn(11) - 1), Value: genHostile(r)})
	}
	for n := r.Intn(3); n > 0; n-- {
		q.RequireInterfaces = append(q.RequireInterfaces, genHostile(r))
	}
	return q
}

func TestQueryWriterMatchesEncodingXML(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		checkQuery(t, genHostileQuery(r))
	}
	checkQuery(t, &Query{})
	if got, _ := MarshalQuery(&Query{Name: "sensor/*"}); string(got) != `<query name="sensor/*"></query>` {
		t.Fatalf("query form changed: %s", got)
	}
}

// allocDesc has the shape of the descriptions the load benchmark registers.
func allocDesc() *Description {
	return &Description{
		Name: "decoy/1f0e3dad", Provider: "10.148.3.77:40213", InstanceID: "137", Version: "2.7",
		Attributes:  map[string]string{"zone": "5", "rate": "412"},
		Reliability: 0.8046457046246652, PowerLevel: 0.3184243932506309,
	}
}

// The point of the codec is what it does not allocate, so the counts are
// pinned. Writer: the output buffer, and nothing when it appends to a buffer
// the caller reuses (the attribute keys are sorted on the stack). Reader: the
// document as one string (every field is a substring of it), the
// Description, and the attribute map (its header and its one group).
func TestDescriptionCodecAllocs(t *testing.T) {
	d := allocDesc()
	data, err := MarshalDescription(d)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := MarshalDescription(d); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("MarshalDescription allocates %.1f times, want at most 1 (xml.Marshal: 27)", avg)
	}
	buf := make([]byte, 0, 512)
	if avg := testing.AllocsPerRun(1000, func() {
		if buf, err = AppendDescription(buf[:0], d); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("AppendDescription into a reused buffer allocates %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := UnmarshalDescription(data); err != nil {
			t.Fatal(err)
		}
	}); avg > 4 {
		t.Errorf("UnmarshalDescription allocates %.1f times, want at most 4 (xml.Unmarshal: 76)", avg)
	}
	q := &Query{Name: "sensor/*", MinReliability: 0.5, Constraints: []Constraint{{Attr: "rate", Op: OpGe, Value: "100"}}}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := MarshalQuery(q); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("MarshalQuery allocates %.1f times, want at most 1 (xml.Marshal: 16)", avg)
	}
}

package svcdesc

import (
	"bytes"
	"encoding/xml"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// The canonical form of a description is the exact bytes
// xml.Marshal(xmlDescription) produces: attributes and children in field
// order, omitempty fields left out when zero, floats in strconv's shortest
// 'g' form, every string escaped as xml.EscapeText escapes it. This file
// writes that form by hand and reads it back, straight into a Description,
// with a scanner that knows nothing else: registering, looking up, flooding
// and gossiping all move descriptions this tree wrote itself, and none of
// them needs reflection. XML some other middleware wrote (§3.9) is still read
// by encoding/xml. A query's canonical form is xml.Marshal(xmlQuery), written
// the same way; queries are read by encoding/xml alone.

// AppendDescription appends d's canonical form — the bytes MarshalDescription
// returns — to b, so a caller that sends many descriptions can write them all
// into one buffer.
func AppendDescription(b []byte, d *Description) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	b = append(b, `<service name="`...)
	b = appendText(b, d.Name)
	b = append(b, `" provider="`...)
	b = appendText(b, d.Provider)
	if d.InstanceID != "" {
		b = append(b, `" instance="`...)
		b = appendText(b, d.InstanceID)
	}
	if d.Version != "" {
		b = append(b, `" version="`...)
		b = appendText(b, d.Version)
	}
	// omitempty drops a float that compares equal to zero: -0 goes, NaN stays.
	if d.Reliability != 0 {
		b = append(b, `" reliability="`...)
		b = appendFloat(b, d.Reliability)
	}
	if d.PowerLevel != 0 {
		b = append(b, `" power="`...)
		b = appendFloat(b, d.PowerLevel)
	}
	b = append(b, `">`...)
	if !d.AvailableFrom.IsZero() {
		b = append(b, "<availableFrom>"...)
		b = d.AvailableFrom.UTC().AppendFormat(b, time.RFC3339Nano)
		b = append(b, "</availableFrom>"...)
	}
	if !d.AvailableUntil.IsZero() {
		b = append(b, "<availableUntil>"...)
		b = d.AvailableUntil.UTC().AppendFormat(b, time.RFC3339Nano)
		b = append(b, "</availableUntil>"...)
	}
	if d.PasswordHash != "" {
		b = append(b, "<passwordHash>"...)
		b = appendText(b, d.PasswordHash)
		b = append(b, "</passwordHash>"...)
	}
	if d.Location != nil {
		b = append(b, `<location x="`...)
		b = appendFloat(b, d.Location.X)
		b = append(b, `" y="`...)
		b = appendFloat(b, d.Location.Y)
		b = append(b, `"></location>`...)
	}
	if ms := d.TTL.Milliseconds(); ms != 0 {
		b = append(b, "<ttlMillis>"...)
		b = strconv.AppendInt(b, ms, 10)
		b = append(b, "</ttlMillis>"...)
	}
	var onStack [8]string // the keys of nearly every description, sorted without a heap slice
	keys := onStack[:0]
	for k := range d.Attributes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = append(b, `<attr key="`...)
		b = appendText(b, k)
		b = append(b, `">`...)
		b = appendText(b, d.Attributes[k])
		b = append(b, "</attr>"...)
	}
	for _, s := range d.Interfaces {
		b = append(b, "<interface>"...)
		b = appendText(b, s)
		b = append(b, "</interface>"...)
	}
	return append(b, "</service>"...), nil
}

// appendQuery appends q's canonical form to b.
func appendQuery(b []byte, q *Query) []byte {
	b = append(b, "<query"...)
	if q.Name != "" {
		b = append(b, ` name="`...)
		b = appendText(b, q.Name)
		b = append(b, '"')
	}
	if q.MinVersion != "" {
		b = append(b, ` minVersion="`...)
		b = appendText(b, q.MinVersion)
		b = append(b, '"')
	}
	if q.MinReliability != 0 {
		b = append(b, ` minReliability="`...)
		b = appendFloat(b, q.MinReliability)
		b = append(b, '"')
	}
	if q.MinPower != 0 {
		b = append(b, ` minPower="`...)
		b = appendFloat(b, q.MinPower)
		b = append(b, '"')
	}
	b = append(b, '>')
	if q.Password != "" {
		b = append(b, "<password>"...)
		b = appendText(b, q.Password)
		b = append(b, "</password>"...)
	}
	if q.Near != nil {
		b = append(b, `<near x="`...)
		b = appendFloat(b, q.Near.X)
		b = append(b, `" y="`...)
		b = appendFloat(b, q.Near.Y)
		b = append(b, `"></near>`...)
	}
	if q.MaxDistance != 0 {
		b = append(b, "<maxDistance>"...)
		b = appendFloat(b, q.MaxDistance)
		b = append(b, "</maxDistance>"...)
	}
	for _, c := range q.Constraints {
		b = append(b, `<where attr="`...)
		b = appendText(b, c.Attr)
		b = append(b, `" op="`...)
		b = appendText(b, c.Op.String())
		b = append(b, `">`...)
		b = appendText(b, c.Value)
		b = append(b, "</where>"...)
	}
	for _, s := range q.RequireInterfaces {
		b = append(b, "<requireInterface>"...)
		b = appendText(b, s)
		b = append(b, "</requireInterface>"...)
	}
	return append(b, "</query>"...)
}

func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendText appends s escaped as encoding/xml escapes attribute values and
// character data. Printable ASCII without markup characters — nearly every
// name, address and version — is copied; anything else is xml.EscapeText's to
// decide, so the two cannot drift apart.
func appendText(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			buf := bytes.NewBuffer(b)
			_ = xml.EscapeText(buf, []byte(s)) // a bytes.Buffer write cannot fail
			return buf.Bytes()
		}
	}
	return append(b, s...)
}

// plainByte reports whether c stands for itself in canonical text.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\'' && c != '&' && c != '<' && c != '>'
}

// writerEntity returns the character s begins with a reference to and the
// reference's length, for the eight references xml.EscapeText emits; the
// scanner reads no others.
func writerEntity(s string) (c byte, n int) {
	for _, e := range [...]struct {
		ref string
		c   byte
	}{
		{"&#34;", '"'}, {"&#39;", '\''}, {"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'},
		{"&#x9;", '\t'}, {"&#xA;", '\n'}, {"&#xD;", '\r'},
	} {
		if strings.HasPrefix(s, e.ref) {
			return e.c, len(e.ref)
		}
	}
	return 0, 0
}

// scanner reads the canonical form and nothing else. The first byte the
// writer would not have produced sets failed, which stops every later step,
// and the caller then hands the whole document to encoding/xml: the scanner
// never has to decide what odd XML means, only whether it is looking at its
// own output. err is the first error descriptionFromXML would report on the
// same bytes: text the writer did write that does not read back.
type scanner struct {
	s      string
	i      int
	failed bool
	err    error
}

// lit consumes p when the input continues with it.
func (sc *scanner) lit(p string) bool {
	if sc.failed || !strings.HasPrefix(sc.s[sc.i:], p) {
		return false
	}
	sc.i += len(p)
	return true
}

// must consumes p or fails.
func (sc *scanner) must(p string) {
	if !sc.lit(p) {
		sc.failed = true
	}
}

// text consumes a value and the end literal that closes it (`"` for an
// attribute, the closing tag for an element) and returns the value unescaped.
// A value without references is a substring of the input.
func (sc *scanner) text(end string) string {
	if sc.failed {
		return ""
	}
	var unescaped []byte
	last := sc.i
scan:
	for sc.i < len(sc.s) {
		c := sc.s[sc.i]
		switch {
		case plainByte(c):
			sc.i++
		case c == end[0]:
			v := sc.s[last:sc.i]
			if unescaped != nil {
				v = string(append(unescaped, v...))
			}
			sc.must(end)
			return v
		case c == '&':
			e, n := writerEntity(sc.s[sc.i:])
			if n == 0 {
				break scan
			}
			unescaped = append(append(unescaped, sc.s[last:sc.i]...), e)
			sc.i += n
			last = sc.i
		case c >= 0x7f:
			// What encoding/xml refuses (invalid UTF-8, U+FFFE, U+FFFF) the
			// writer replaces with U+FFFD, so it is not canonical either.
			r, w := utf8.DecodeRuneInString(sc.s[sc.i:])
			if r == utf8.RuneError && w == 1 || r == 0xFFFE || r == 0xFFFF {
				break scan
			}
			sc.i += w
		default:
			break scan
		}
	}
	sc.failed = true
	return ""
}

// float consumes a float-valued attribute. encoding/xml trims the value
// before strconv sees it; the writer puts no space there, so a value strconv
// refuses as it stands is not canonical.
func (sc *scanner) float() float64 {
	f, err := strconv.ParseFloat(sc.text(`"`), 64)
	if err != nil {
		sc.failed = true
	}
	return f
}

// instant consumes an availability bound, which ends at end. The writer
// writes years time.Parse refuses, so a bound that does not parse is still
// canonical: it sets err, not failed. An empty bound is no bound, as in
// descriptionFromXML.
func (sc *scanner) instant(field, end string) time.Time {
	v := sc.text(end)
	if sc.failed || v == "" {
		return time.Time{}
	}
	t, err := parseInstant(field, v)
	if err != nil && sc.err == nil {
		sc.err = err
	}
	return t
}

// description consumes one <service> element into d.
func (sc *scanner) description(d *Description) {
	sc.must(`<service name="`)
	d.Name = sc.text(`"`)
	sc.must(` provider="`)
	d.Provider = sc.text(`"`)
	if sc.lit(` instance="`) {
		d.InstanceID = sc.text(`"`)
	}
	if sc.lit(` version="`) {
		d.Version = sc.text(`"`)
	}
	if sc.lit(` reliability="`) {
		d.Reliability = sc.float()
	}
	if sc.lit(` power="`) {
		d.PowerLevel = sc.float()
	}
	sc.must(">")
	if sc.lit("<availableFrom>") {
		d.AvailableFrom = sc.instant("availableFrom", "</availableFrom>")
	}
	if sc.lit("<availableUntil>") {
		d.AvailableUntil = sc.instant("availableUntil", "</availableUntil>")
	}
	if sc.lit("<passwordHash>") {
		d.PasswordHash = sc.text("</passwordHash>")
	}
	if sc.lit(`<location x="`) {
		d.Location = new(Location)
		d.Location.X = sc.float()
		sc.must(` y="`)
		d.Location.Y = sc.float()
		sc.must("></location>")
	}
	if sc.lit("<ttlMillis>") {
		ms, err := strconv.ParseInt(sc.text("</ttlMillis>"), 10, 64)
		if err != nil {
			sc.failed = true
		}
		d.TTL = time.Duration(ms) * time.Millisecond
	}
	for sc.lit(`<attr key="`) {
		key := sc.text(`"`)
		sc.must(">")
		if d.Attributes == nil {
			d.Attributes = make(map[string]string)
		}
		d.Attributes[key] = sc.text("</attr>") // a repeated key keeps its last value, as in descriptionFromXML
	}
	for sc.lit("<interface>") {
		d.Interfaces = append(d.Interfaces, sc.text("</interface>"))
	}
	sc.must("</service>")
}

// scanDescription reads data when it is exactly one canonical description;
// ok is false when it is not. When ok, the result and error are what
// encoding/xml and descriptionFromXML make of the same bytes. The result
// shares no memory with data (its strings are cut from one copy of it), so
// data may be reused as soon as it returns.
func scanDescription(data []byte) (d *Description, ok bool, err error) {
	sc := scanner{s: string(data)}
	d = new(Description)
	sc.description(d)
	if sc.failed || sc.i != len(sc.s) {
		return nil, false, nil
	}
	if sc.err == nil {
		sc.err = d.Validate()
	}
	if sc.err != nil {
		return nil, true, sc.err
	}
	return d, true, nil
}

// scanDescriptionList reads data when it is exactly a canonical <services>
// document, with scanDescription's contract; the error is the first item's,
// and is reported only once the whole document has scanned, because
// encoding/xml reads all of it before descriptionFromXML sees an item. Each
// description gets a string of its own, so keeping one does not keep the
// whole reply alive: canonical text holds no raw '<', which makes the first
// "</service>" the end of the element, and a chunk cut anywhere else is
// refused by the scanner.
func scanDescriptionList(data []byte) (descs []*Description, ok bool, err error) {
	const open, closeItem, closeList = "<services>", "</service>", "</services>"
	if !bytes.HasPrefix(data, []byte(open)) {
		return nil, false, nil
	}
	data = data[len(open):]
	descs = make([]*Description, 0, bytes.Count(data, []byte(closeItem)))
	for string(data) != closeList {
		end := bytes.Index(data, []byte(closeItem))
		if end < 0 {
			return nil, false, nil
		}
		end += len(closeItem)
		d, ok, derr := scanDescription(data[:end])
		if !ok {
			return nil, false, nil
		}
		if err == nil {
			err = derr
		}
		descs = append(descs, d)
		data = data[end:]
	}
	if err != nil {
		return nil, true, err
	}
	return descs, true, nil
}

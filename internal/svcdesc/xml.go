package svcdesc

import (
	"encoding/xml"
	"fmt"
	"time"
)

// XML forms of Description and Query. These are the interoperable
// representations (§3.3, §3.9): any middleware able to parse XML can
// advertise into or query our registries. The structs below are what
// encoding/xml reads XML this tree did not write into; canonical.go writes
// both forms and reads descriptions without them.

type xmlDescription struct {
	XMLName     xml.Name  `xml:"service"`
	Name        string    `xml:"name,attr"`
	Provider    string    `xml:"provider,attr"`
	InstanceID  string    `xml:"instance,attr,omitempty"`
	Version     string    `xml:"version,attr,omitempty"`
	Reliability float64   `xml:"reliability,attr,omitempty"`
	PowerLevel  float64   `xml:"power,attr,omitempty"`
	From        string    `xml:"availableFrom,omitempty"`
	Until       string    `xml:"availableUntil,omitempty"`
	Password    string    `xml:"passwordHash,omitempty"`
	Location    *xmlPoint `xml:"location"`
	TTLMillis   int64     `xml:"ttlMillis,omitempty"`
	Attributes  []xmlAttr `xml:"attr"`
	Interfaces  []string  `xml:"interface"`
}

type xmlDescriptionList struct {
	XMLName xml.Name         `xml:"services"`
	Items   []xmlDescription `xml:"service"`
}

type xmlPoint struct {
	X float64 `xml:"x,attr"`
	Y float64 `xml:"y,attr"`
}

type xmlAttr struct {
	Key   string `xml:"key,attr"`
	Value string `xml:",chardata"`
}

// MarshalDescription serializes a description to XML.
func MarshalDescription(d *Description) ([]byte, error) {
	// Most descriptions fit, so the buffer is allocated once.
	return AppendDescription(make([]byte, 0, 256), d)
}

// UnmarshalDescription parses a description from XML. The result shares no
// memory with data.
func UnmarshalDescription(data []byte) (*Description, error) {
	if d, ok, err := scanDescription(data); ok {
		return d, err
	}
	var x xmlDescription
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("svcdesc: parse description: %w", err)
	}
	return descriptionFromXML(x)
}

// parseInstant reads an availability bound, for descriptionFromXML and the
// scanner alike.
func parseInstant(field, s string) (time.Time, error) {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("svcdesc: %s: %w", field, err)
	}
	return t.UTC(), nil
}

// descriptionFromXML converts the parsed XML form into a validated
// Description.
func descriptionFromXML(x xmlDescription) (*Description, error) {
	d := &Description{
		Name:         x.Name,
		Provider:     x.Provider,
		InstanceID:   x.InstanceID,
		Version:      x.Version,
		Reliability:  x.Reliability,
		PowerLevel:   x.PowerLevel,
		PasswordHash: x.Password,
		Interfaces:   x.Interfaces,
		TTL:          time.Duration(x.TTLMillis) * time.Millisecond,
	}
	var err error
	if x.From != "" {
		if d.AvailableFrom, err = parseInstant("availableFrom", x.From); err != nil {
			return nil, err
		}
	}
	if x.Until != "" {
		if d.AvailableUntil, err = parseInstant("availableUntil", x.Until); err != nil {
			return nil, err
		}
	}
	if x.Location != nil {
		d.Location = &Location{X: x.Location.X, Y: x.Location.Y}
	}
	if len(x.Attributes) > 0 {
		d.Attributes = make(map[string]string, len(x.Attributes))
		for _, a := range x.Attributes {
			d.Attributes[a.Key] = a.Value
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// MarshalDescriptionList serializes descriptions into a <services> document.
func MarshalDescriptionList(descs []*Description) ([]byte, error) {
	buf := []byte("<services>")
	for _, d := range descs {
		var err error
		if buf, err = AppendDescription(buf, d); err != nil {
			return nil, err
		}
	}
	return append(buf, "</services>"...), nil
}

// UnmarshalDescriptionList parses a <services> document.
func UnmarshalDescriptionList(data []byte) ([]*Description, error) {
	if descs, ok, err := scanDescriptionList(data); ok {
		return descs, err
	}
	var list xmlDescriptionList
	if err := xml.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("svcdesc: parse service list: %w", err)
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

type xmlQuery struct {
	XMLName        xml.Name        `xml:"query"`
	Name           string          `xml:"name,attr,omitempty"`
	MinVersion     string          `xml:"minVersion,attr,omitempty"`
	MinReliability float64         `xml:"minReliability,attr,omitempty"`
	MinPower       float64         `xml:"minPower,attr,omitempty"`
	Password       string          `xml:"password,omitempty"`
	Near           *xmlPoint       `xml:"near"`
	MaxDistance    float64         `xml:"maxDistance,omitempty"`
	Constraints    []xmlConstraint `xml:"where"`
	Interfaces     []string        `xml:"requireInterface"`
}

type xmlConstraint struct {
	Attr  string `xml:"attr,attr"`
	Op    string `xml:"op,attr"`
	Value string `xml:",chardata"`
}

// MarshalQuery serializes a query to XML: the bytes xml.Marshal makes of
// xmlQuery, written without reflection (canonical.go). Its error is always
// nil.
func MarshalQuery(q *Query) ([]byte, error) {
	return appendQuery(make([]byte, 0, 128), q), nil
}

// UnmarshalQuery parses a query from XML.
func UnmarshalQuery(data []byte) (*Query, error) {
	var x xmlQuery
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("svcdesc: parse query: %w", err)
	}
	q := &Query{
		Name:              x.Name,
		MinVersion:        x.MinVersion,
		MinReliability:    x.MinReliability,
		MinPower:          x.MinPower,
		Password:          x.Password,
		MaxDistance:       x.MaxDistance,
		RequireInterfaces: x.Interfaces,
	}
	if x.Near != nil {
		q.Near = &Location{X: x.Near.X, Y: x.Near.Y}
	}
	for _, c := range x.Constraints {
		op, err := OpFromString(c.Op)
		if err != nil {
			return nil, err
		}
		q.Constraints = append(q.Constraints, Constraint{Attr: c.Attr, Op: op, Value: c.Value})
	}
	return q, nil
}

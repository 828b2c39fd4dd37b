package svcdesc

import (
	"encoding/xml"
	"fmt"
	"sort"
	"time"
)

// XML forms of Description and Query. These are the interoperable
// representations (§3.3, §3.9): any middleware able to parse XML can
// advertise into or query our registries.

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
	return appendDescription(make([]byte, 0, 256), d)
}

// UnmarshalDescription parses a description from XML.
func UnmarshalDescription(data []byte) (*Description, error) {
	x, ok := scanDescription(data)
	if !ok {
		if err := xml.Unmarshal(data, &x); err != nil {
			return nil, fmt.Errorf("svcdesc: parse description: %w", err)
		}
	}
	return descriptionFromXML(x)
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
	if x.From != "" {
		t, err := time.Parse(time.RFC3339Nano, x.From)
		if err != nil {
			return nil, fmt.Errorf("svcdesc: availableFrom: %w", err)
		}
		d.AvailableFrom = t.UTC()
	}
	if x.Until != "" {
		t, err := time.Parse(time.RFC3339Nano, x.Until)
		if err != nil {
			return nil, fmt.Errorf("svcdesc: availableUntil: %w", err)
		}
		d.AvailableUntil = t.UTC()
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
		if buf, err = appendDescription(buf, d); err != nil {
			return nil, err
		}
	}
	return append(buf, "</services>"...), nil
}

// UnmarshalDescriptionList parses a <services> document.
func UnmarshalDescriptionList(data []byte) ([]*Description, error) {
	items, ok := scanDescriptionList(data)
	if !ok {
		var list xmlDescriptionList
		if err := xml.Unmarshal(data, &list); err != nil {
			return nil, fmt.Errorf("svcdesc: parse service list: %w", err)
		}
		items = list.Items
	}
	out := make([]*Description, 0, len(items))
	for _, x := range items {
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

// MarshalQuery serializes a query to XML.
func MarshalQuery(q *Query) ([]byte, error) {
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

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

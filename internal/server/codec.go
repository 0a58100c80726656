package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"metricindex/internal/core"
)

// decodeObject parses a JSON query/insert object into the dataset's
// object type, chosen by a prototype live object: Vector ⇒ JSON number
// array, IntVector ⇒ JSON integer array, Word ⇒ JSON string. The wire
// shape is the natural JSON of each type, so clients post
// {"query": [1.5, 2.0]} or {"query": "fuzzy"}.
//
// Vector dimensionalities are validated against the prototype: the
// metrics treat a dimension mismatch as a programming error and panic,
// so a short (or null) array from the wire must be rejected here —
// found by FuzzDecodeQuery.
func decodeObject(raw json.RawMessage, proto core.Object) (core.Object, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing object")
	}
	switch p := proto.(type) {
	case core.Vector:
		var v core.Vector
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("object must be a number array: %w", err)
		}
		if len(v) != len(p) {
			return nil, fmt.Errorf("object has %d dimensions, dataset has %d", len(v), len(p))
		}
		return v, nil
	case core.IntVector:
		var v core.IntVector
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("object must be an integer array: %w", err)
		}
		if len(v) != len(p) {
			return nil, fmt.Errorf("object has %d dimensions, dataset has %d", len(v), len(p))
		}
		return v, nil
	case core.Word:
		var w string
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, fmt.Errorf("object must be a string: %w", err)
		}
		return core.Word(w), nil
	default:
		return nil, fmt.Errorf("unsupported object type %T", proto)
	}
}

// encodeObject renders a stored object back to its wire shape.
func encodeObject(o core.Object) (json.RawMessage, error) {
	switch v := o.(type) {
	case core.Vector, core.IntVector:
		return json.Marshal(v)
	case core.Word:
		return json.Marshal(string(v))
	default:
		return nil, fmt.Errorf("unsupported object type %T", o)
	}
}

// decodeAttrs parses a JSON attribute bag into core.Attrs. The wire
// shape maps each JSON type to its attribute kind: a string becomes
// AttrString, an array of strings AttrTags, and a number AttrInt when
// it is an exact integer literal, AttrFloat otherwise. The int/float
// split never changes filter semantics — predicates compare numerics in
// a widened float64 domain — it only preserves the client's type
// through persistence. An empty or absent bag decodes to nil; a bag
// core.Attrs.Validate rejects (a key, string or tag over 65 535 bytes,
// or too many fields or tags) is an error, which the handlers answer
// with 400.
func decodeAttrs(raw json.RawMessage) (core.Attrs, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("attrs must be a JSON object: %w", err)
	}
	if len(m) == 0 {
		return nil, nil
	}
	a := make(core.Attrs, len(m))
	for k, v := range m {
		if k == "" {
			return nil, fmt.Errorf("attrs: empty field name")
		}
		switch x := v.(type) {
		case string:
			a[k] = core.StringValue(x)
		case json.Number:
			if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
				a[k] = core.IntValue(i)
				break
			}
			f, err := x.Float64()
			if err != nil {
				return nil, fmt.Errorf("attr %q: bad number %q", k, string(x))
			}
			a[k] = core.FloatValue(f)
		case []any:
			tags := make([]string, len(x))
			for i, t := range x {
				s, ok := t.(string)
				if !ok {
					return nil, fmt.Errorf("attr %q: tag arrays may hold strings only", k)
				}
				tags[i] = s
			}
			a[k] = core.TagsValue(tags...)
		default:
			return nil, fmt.Errorf("attr %q: must be a string, number, or string array", k)
		}
	}
	if err := core.ValidateAttrs(a); err != nil {
		return nil, err
	}
	return a, nil
}

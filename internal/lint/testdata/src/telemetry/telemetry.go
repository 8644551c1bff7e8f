// Package telemetry is a miniature mimic of aq2pnn/internal/telemetry for
// analyzer testdata (matched by the package name and the attribute
// builder and Span.SetAttr names that secretflow treats as sinks).
package telemetry

// Attr is one key/value span attribute.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Span is one started span.
type Span struct{}

func (s *Span) SetAttr(key string, value any) {}

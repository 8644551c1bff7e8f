package aq2pnn

import (
	"fmt"
	"reflect"
	"testing"
)

// facadeOnlyFields are the NetConfig fields the facade consumes itself
// instead of translating into engine.Options: DemoGroup selects the OT
// group, DialTimeout shapes the Redial, ServeSessions bounds the serve
// loops, MetricsAddr stands up the metrics endpoint.
var facadeOnlyFields = map[string]bool{
	"DemoGroup":     true,
	"DialTimeout":   true,
	"ServeSessions": true,
	"MetricsAddr":   true,
}

// engineOnlyOptions are engine.Options fields with no same-named facade
// field: Group is derived from DemoGroup.
var engineOnlyOptions = map[string]bool{
	"Group": true,
}

// setNonZero fills every field of a struct with a distinct non-zero value
// (distinct so two same-typed fields swapped in the translation cannot
// cancel out), recursing into embedded structs.
func setNonZero(t *testing.T, v reflect.Value, counter *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		*counter++
		n := int64(*counter)
		switch f.Kind() {
		case reflect.Struct:
			setNonZero(t, f, counter)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(n)
		case reflect.String:
			f.SetString(fmt.Sprintf("v%d", n))
		case reflect.Ptr:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("field %s: unhandled kind %s — extend setNonZero", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestNetworkConfigExhaustive is the value-level half of the translation
// guard (the mirror structs in config.go are the compile-time half): with
// every InferenceConfig field set to a distinct non-zero value, every
// non-facade-only field must arrive in engine.Options under the same name
// with the same value, and every engine.Options field must be accounted
// for.
func TestNetworkConfigExhaustive(t *testing.T) {
	var cfg InferenceConfig
	counter := 0
	setNonZero(t, reflect.ValueOf(&cfg).Elem(), &counter)
	opts := networkConfig(cfg)
	ov := reflect.ValueOf(opts)

	facadeNames := map[string]bool{}
	for _, section := range []reflect.Value{
		reflect.ValueOf(cfg.ComputeConfig),
		reflect.ValueOf(cfg.NetConfig),
	} {
		st := section.Type()
		for i := 0; i < st.NumField(); i++ {
			name := st.Field(i).Name
			facadeNames[name] = true
			if facadeOnlyFields[name] {
				continue
			}
			of := ov.FieldByName(name)
			if !of.IsValid() {
				t.Errorf("facade field %s has no engine.Options counterpart and is not declared facade-only", name)
				continue
			}
			if got, want := of.Interface(), section.Field(i).Interface(); !reflect.DeepEqual(got, want) {
				t.Errorf("engine.Options.%s = %v, want the facade value %v", name, got, want)
			}
		}
	}

	// Facade-consumed fields must actually exist on the facade (guards the
	// maps above against rot).
	for name := range facadeOnlyFields {
		if !facadeNames[name] {
			t.Errorf("facadeOnlyFields lists %s, which is not an InferenceConfig field", name)
		}
	}

	// Every engine.Options field is either mapped from a same-named facade
	// field or declared engine-only.
	ot := ov.Type()
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		if engineOnlyOptions[name] {
			continue
		}
		if !facadeNames[name] {
			t.Errorf("engine.Options.%s has no facade field and is not declared engine-only", name)
		}
	}

	// The one derived mapping: DemoGroup selects a concrete OT group.
	if opts.Group.P == nil {
		t.Error("DemoGroup did not select an OT group")
	}
	if networkConfig(InferenceConfig{}).Group.P != nil {
		t.Error("zero DemoGroup selected an OT group")
	}
}

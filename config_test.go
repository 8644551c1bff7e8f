package aq2pnn

import (
	"reflect"
	"testing"
	"time"

	"aq2pnn/internal/ot"
)

// TestInferenceConfigOptions pins the facade's one derived engine option.
// The first row is a security property: a zero config must keep the
// production OT group (a nil Group.P), never fall back to the demo group.
func TestInferenceConfigOptions(t *testing.T) {
	for _, tc := range []struct {
		cfg  InferenceConfig
		want Options
	}{
		{InferenceConfig{}, Options{}},
		{InferenceConfig{DemoGroup: true}, Options{Group: ot.TestGroup()}},
		{InferenceConfig{Options: Options{CarrierBits: 16, Seed: 3, Retries: 2},
			DialTimeout: time.Second, ServeSessions: 2, MetricsAddr: ":0"},
			Options{CarrierBits: 16, Seed: 3, Retries: 2}},
	} {
		if got := tc.cfg.options(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v.options() = %+v, want %+v", tc.cfg, got, tc.want)
		}
	}
}

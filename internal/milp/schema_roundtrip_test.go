package milp

import (
	"testing"

	"afp/internal/lp"
	"afp/internal/obs"
)

// TestRecordedEventsMatchSchema runs observed serial and parallel solves
// and round-trips every recorded event through the generated registry:
// any emit site drifting from schema.go (a new field, a renamed kind)
// fails here and in the obsevent analyzer alike.
func TestRecordedEventsMatchSchema(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"serial", Options{Workers: 1, Presolve: true}},
		{"parallel", Options{Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &obs.Recorder{}
			o := obs.New(rec)
			tc.opt.Obs = o
			tc.opt.LP = lp.Options{Obs: o}
			solveKnapsack(t, tc.opt)
			events := rec.Events()
			if len(events) == 0 {
				t.Fatal("no events recorded")
			}
			for _, e := range events {
				if err := obs.ValidateEvent(e); err != nil {
					t.Errorf("recorded event fails schema: %v", err)
				}
			}
		})
	}
}

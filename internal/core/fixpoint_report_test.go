package core

import (
	"context"
	"reflect"
	"testing"
)

// TestFixpointCounters asserts that the scheduler's observability counters
// (RunReport fix_* fields) are populated by a run.
func TestFixpointCounters(t *testing.T) {
	def, err := CaseStudy("sc", 4)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Def: def, Algorithm: LazyRepair, Verify: false}
	out, err := Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunReport(job, out, "sc", 4)
	if r.FixRounds <= 0 {
		t.Errorf("FixRounds = %d, want > 0", r.FixRounds)
	}
	if r.FixImages <= 0 {
		t.Errorf("FixImages = %d, want > 0", r.FixImages)
	}
}

// identityFields are the RunReport fields outside Telemetry: the result
// identity that Normalized keeps and the golden-result test pins. A field
// added to RunReport must either go into Telemetry or be listed here.
var identityFields = []string{
	"Model", "Case", "N", "Algorithm", "Pure", "DeferCycles", "Backend",
	"StateBits", "States", "ReachableStates", "InvariantStates", "FaultSpanStates",
	"OuterIterations", "Verified", "Checks", "Witnesses",
	"Costed", "MinCost", "AchievedCost", "CostRemoved",
}

// TestNormalizedDropsTelemetry sets every exported RunReport field, the
// promoted Telemetry ones included, to a non-zero value and checks that
// Normalized zeroes exactly the Telemetry and keeps every other field.
func TestNormalizedDropsTelemetry(t *testing.T) {
	var r RunReport
	rv := reflect.ValueOf(&r).Elem()
	for _, f := range reflect.VisibleFields(rv.Type()) {
		if !f.IsExported() || f.Anonymous {
			continue
		}
		v := rv.FieldByIndex(f.Index)
		setNonZero(t, f.Name, v)
		if v.IsZero() {
			t.Fatalf("field %s still zero after setNonZero", f.Name)
		}
	}

	n := r.Normalized()
	nv := reflect.ValueOf(n)
	telemetry := reflect.TypeOf(Telemetry{})
	identity := map[string]bool{}
	for _, name := range identityFields {
		identity[name] = true
	}
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		switch {
		case f.Anonymous && f.Type == telemetry:
			if !nv.Field(i).IsZero() {
				t.Errorf("Normalized kept telemetry: %+v", n.Telemetry)
			}
		case !identity[f.Name]:
			t.Errorf("RunReport.%s is neither in Telemetry nor a listed identity field", f.Name)
		case !reflect.DeepEqual(nv.Field(i).Interface(), rv.Field(i).Interface()):
			t.Errorf("Normalized changed identity field %s: %v -> %v", f.Name, rv.Field(i), nv.Field(i))
		}
	}
	for name := range identity {
		if _, ok := rv.Type().FieldByName(name); !ok {
			t.Errorf("identity field %s no longer exists", name)
		}
	}
}

// setNonZero stores an arbitrary non-zero value of v's type in v.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7.5)
	case reflect.String:
		v.SetString(name)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	default:
		t.Fatalf("field %s: no non-zero value for kind %s", name, v.Kind())
	}
}

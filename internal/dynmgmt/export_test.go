package dynmgmt

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// sameReports fails unless two periods reported identically: every
// tenant's report and every deployed share.
func sameReports(t *testing.T, label string, a, b *PeriodReport) {
	t.Helper()
	if !reflect.DeepEqual(a.Tenants, b.Tenants) {
		t.Fatalf("%s: tenant reports diverge: %+v vs %+v", label, a.Tenants, b.Tenants)
	}
	if !reflect.DeepEqual(a.Allocations, b.Allocations) {
		t.Fatalf("%s: allocations diverge: %v vs %v", label, a.Allocations, b.Allocations)
	}
}

// A manager exported after two periods and imported into a fresh one
// carries everything the next period depends on: both report that
// period identically and export identical state after it.
func TestExportImportRoundTrip(t *testing.T) {
	sc := newScenario()
	m := NewManager(core.Options{Delta: 0.05})
	for p := 0; p < 2; p++ {
		if _, err := m.Period(sc.inputs()); err != nil {
			t.Fatal(err)
		}
	}
	exp := m.Export()
	if len(exp.Tenants) != 2 || exp.Tenants[0].ID != "t0" || exp.Tenants[1].ID != "t1" {
		t.Fatalf("export does not key its tenants by ID: %+v", exp.Tenants)
	}
	r := NewManager(core.Options{Delta: 0.05})
	if err := r.Import(exp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Export(), exp) {
		t.Fatal("an imported manager must export what it imported")
	}
	sc.intensity[1] *= 1.05 // a minor change, so refinement runs
	want, err := m.Period(sc.inputs())
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Period(sc.inputs())
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "period after import", got, want)
	if !reflect.DeepEqual(r.Export(), m.Export()) {
		t.Fatal("state diverges after the period that followed the import")
	}
}

// Import validates the whole export before it changes anything: each
// rejected export leaves the target exactly as it was.
func TestImportRejectsInvalidState(t *testing.T) {
	sc := newScenario()
	src := NewManager(core.Options{Delta: 0.05})
	if _, err := src.Period(sc.inputs()); err != nil {
		t.Fatal(err)
	}
	valid := src.Export()
	edited := func(edit func(*StateExport)) *StateExport {
		s := src.Export()
		edit(s)
		return s
	}
	cases := []struct {
		name string
		s    *StateExport
	}{
		{"nil state", nil},
		{"empty ID", edited(func(s *StateExport) { s.Tenants[1].ID = "" })},
		{"duplicate ID", edited(func(s *StateExport) { s.Tenants[1].ID = s.Tenants[0].ID })},
		{"previous allocations for another tenant count", edited(func(s *StateExport) { s.Prev = s.Prev[:1] })},
		{"invalid model", edited(func(s *StateExport) { s.Tenants[1].Model.M = 0 })},
	}
	for _, target := range []struct {
		name string
		m    *Manager
	}{
		{"fresh", NewManager(core.Options{Delta: 0.05})},
		{"running", src},
	} {
		before := target.m.Export()
		for _, tc := range cases {
			if err := target.m.Import(tc.s); err == nil {
				t.Fatalf("%s target: %s accepted", target.name, tc.name)
			}
			if !reflect.DeepEqual(target.m.Export(), before) {
				t.Fatalf("%s target: rejecting %s changed the manager", target.name, tc.name)
			}
		}
	}
	if err := NewManager(core.Options{}).Import(valid); err != nil {
		t.Fatalf("control: the unedited export was rejected: %v", err)
	}
}

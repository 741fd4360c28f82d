package specs

import (
	"slices"
	"testing"
)

// TestResolveIsIdempotent: checkd resolves a request at admission and
// again when a recovered job runs, so resolved params must resolve to
// themselves, on every entry, whatever the request left unset or set for
// another spec.
func TestResolveIsIdempotent(t *testing.T) {
	if names := Names(); !slices.IsSorted(names) {
		t.Fatalf("Names() = %v, want sorted", names)
	}
	for _, name := range Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Params{{}, {Nodes: 2, MaxTerm: 4, MaxLog: 1, Actors: 3, OmitCompatibilityCheck: true}} {
			once, err := e.Resolve(p)
			if err != nil {
				t.Fatalf("%s: Resolve(%+v): %v", name, p, err)
			}
			twice, err := e.Resolve(once)
			if err != nil || twice != once {
				t.Errorf("%s: Resolve(%+v) = %+v, then %+v, %v", name, p, once, twice, err)
			}
		}
	}
}

package registry

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/naplet"
)

type fakeAgent struct{ started bool }

func (f *fakeAgent) OnStart(ctx *naplet.Context) error { f.started = true; return nil }

func testCodebase(name string) *Codebase {
	return &Codebase{
		Name: name,
		New:  func() naplet.Behavior { return &fakeAgent{} },
		Actions: map[string]ActionFunc{
			"report": func(ctx *naplet.Context) error { return nil },
		},
		Guards: map[string]GuardFunc{
			"notFound": func(ctx *naplet.Context) (bool, error) { return true, nil },
		},
	}
}

func TestRegisterAndLookup(t *testing.T) {
	r := New()
	if err := r.Register(testCodebase("app.Agent")); err != nil {
		t.Fatal(err)
	}
	cb, err := r.Lookup("app.Agent")
	if err != nil {
		t.Fatal(err)
	}
	if cb.BundleSize != DefaultBundleSize {
		t.Fatalf("default bundle size not applied: %d", cb.BundleSize)
	}
	if _, err := r.Lookup("ghost"); !errors.Is(err, ErrUnknownCodebase) {
		t.Fatalf("want ErrUnknownCodebase, got %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New()
	if err := r.Register(nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("nil codebase: %v", err)
	}
	if err := r.Register(&Codebase{Name: "x"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("missing factory: %v", err)
	}
	if err := r.Register(&Codebase{New: func() naplet.Behavior { return nil }}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("missing name: %v", err)
	}
	r.MustRegister(testCodebase("a"))
	if err := r.Register(testCodebase("a")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister must panic on duplicate")
		}
	}()
	r.MustRegister(testCodebase("a"))
}

func TestInstantiateFreshInstances(t *testing.T) {
	r := New()
	r.MustRegister(testCodebase("a"))
	b1, err := r.Instantiate("a")
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := r.Instantiate("a")
	if b1 == b2 {
		t.Fatal("Instantiate must return fresh instances")
	}
	if _, err := r.Instantiate("ghost"); !errors.Is(err, ErrUnknownCodebase) {
		t.Fatal(err)
	}
}

func TestActionAndGuardResolution(t *testing.T) {
	r := New()
	r.MustRegister(testCodebase("a"))
	if _, err := r.Action("a", "report"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Action("a", "ghost"); !errors.Is(err, ErrUnknownAction) {
		t.Fatalf("want ErrUnknownAction, got %v", err)
	}
	if _, err := r.Action("ghost", "report"); !errors.Is(err, ErrUnknownCodebase) {
		t.Fatal(err)
	}
	if _, err := r.Guard("a", "notFound"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Guard("a", "ghost"); !errors.Is(err, ErrUnknownGuard) {
		t.Fatalf("want ErrUnknownGuard, got %v", err)
	}
}

// TestGuardEvaluates: a guard the registry hands out runs in the naplet's
// context, as a dock's resident proxy evaluates the itinerary with it.
func TestGuardEvaluates(t *testing.T) {
	r := New()
	r.MustRegister(testCodebase("a"))
	g, err := r.Guard("a", "notFound")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := g(&naplet.Context{})
	if err != nil || !ok {
		t.Fatalf("Eval: %v %v", ok, err)
	}
	if _, err := r.Guard("a", "ghost"); !errors.Is(err, ErrUnknownGuard) {
		t.Fatalf("unknown guard: %v", err)
	}
}

func TestBundleDeterministicAndSized(t *testing.T) {
	r := New()
	cb := testCodebase("a")
	cb.BundleSize = 1000
	r.MustRegister(cb)
	b1, err := r.Bundle("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != 1000 {
		t.Fatalf("bundle size = %d", len(b1))
	}
	b2, _ := r.Bundle("a")
	if !bytes.Equal(b1, b2) {
		t.Fatal("bundle must be deterministic")
	}
	cb2 := testCodebase("other")
	cb2.BundleSize = 1000
	r.MustRegister(cb2)
	b3, _ := r.Bundle("other")
	if bytes.Equal(b1, b3) {
		t.Fatal("different codebases must have different bundles")
	}
	if _, err := r.Bundle("ghost"); !errors.Is(err, ErrUnknownCodebase) {
		t.Fatal(err)
	}
}

func TestCacheLazyLoading(t *testing.T) {
	c := NewCache()
	if c.Has("a") {
		t.Fatal("fresh cache must miss")
	}
	c.LoadedDigest("a", "", 500)
	if !c.Has("a") {
		t.Fatal("loaded codebase must hit")
	}
	c.LoadedDigest("a", "", 500) // idempotent: no double charge
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.BytesFetched != 500 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBundleDigestMemoizedAndContentBased(t *testing.T) {
	r := New()
	r.MustRegister(testCodebase("cb.one"))
	r.MustRegister(testCodebase("cb.two"))

	d1, err := r.BundleDigest("cb.one")
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", d1)
	}
	again, err := r.BundleDigest("cb.one")
	if err != nil {
		t.Fatal(err)
	}
	if again != d1 {
		t.Fatal("digest not stable")
	}
	d2, err := r.BundleDigest("cb.two")
	if err != nil {
		t.Fatal(err)
	}
	if d2 == d1 {
		t.Fatal("different bundles share a digest")
	}
	if _, err := r.BundleDigest("cb.unknown"); err == nil {
		t.Fatal("unknown codebase must error")
	}
}

func TestCacheDigestAlias(t *testing.T) {
	c := NewCache()
	if c.Alias("a", "") {
		t.Fatal("empty digest must not alias")
	}
	if c.Alias("a", "deadbeef") {
		t.Fatal("unknown digest must not alias")
	}
	c.LoadedDigest("a", "deadbeef", 500)
	if !c.Alias("b", "deadbeef") {
		t.Fatal("known digest must alias a cold name")
	}
	if !c.Has("b") {
		t.Fatal("aliased name must be loaded")
	}
	s := c.Stats()
	if s.AliasHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesFetched != 500 {
		t.Fatalf("alias must not charge a fetch: %+v", s)
	}
}

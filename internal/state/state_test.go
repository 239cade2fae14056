package state

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetRoundTrip(t *testing.T) {
	s := New()
	if err := s.SetPrivate("price", 42); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("price")
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 42 {
		t.Fatalf("got %v", v)
	}
	var n int
	if err := s.Load("price", &n); err != nil || n != 42 {
		t.Fatalf("Load: %v n=%d", err, n)
	}
}

func TestGetMissingKey(t *testing.T) {
	s := New()
	if _, err := s.Get("nope"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("want ErrNoSuchKey, got %v", err)
	}
	if err := s.Load("nope", new(int)); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("want ErrNoSuchKey, got %v", err)
	}
	if _, err := s.ModeOf("nope"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("want ErrNoSuchKey, got %v", err)
	}
}

func TestNilValueRejected(t *testing.T) {
	s := New()
	if err := s.SetPublic("k", nil); !errors.Is(err, ErrNilValue) {
		t.Fatalf("want ErrNilValue, got %v", err)
	}
}

func TestLoadTypeMismatch(t *testing.T) {
	s := New()
	s.SetPrivate("k", "a string")
	var n int
	if err := s.Load("k", &n); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("want ErrBadPayload, got %v", err)
	}
}

// twelveTypes holds one value of every type the value codec carries, in
// tag order.
func twelveTypes() []any {
	return []any{
		"str",
		-42,
		int64(1) << 40,
		2.5,
		true,
		[]byte{0, 1, 0xff},
		[]string{"a", "", "c"},
		[]int{3, -1, 1 << 33},
		[]any{"x", 7, []any{false}, map[string]any{"k": []byte("v")}},
		map[string]string{"k": "v", "a": ""},
		map[string][]string{"peers": {"s1", "s2"}, "none": nil},
		map[string]any{"n": 1, "list": []any{int64(2), 3.0}, "m": map[string]string{"q": "r"}},
	}
}

// TestLoadSupportedTypes: every storable type comes back as the concrete
// Go type that was stored, from Get, from Load into a typed pointer and
// *any, and after the container has crossed the wire.
func TestLoadSupportedTypes(t *testing.T) {
	for _, want := range twelveTypes() {
		s := New()
		if err := s.SetPrivate("k", want); err != nil {
			t.Fatalf("%T: Set: %v", want, err)
		}
		wired, rest, err := DecodeBinary(s.AppendBinary(nil))
		if err != nil || len(rest) != 0 {
			t.Fatalf("%T: DecodeBinary: %v, %d trailing bytes", want, err, len(rest))
		}
		for name, st := range map[string]*State{"local": s, "wired": wired} {
			if got, err := st.Get("k"); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %T: Get = %#v, %v", name, want, got, err)
			}
			typed := reflect.New(reflect.TypeOf(want))
			if err := st.Load("k", typed.Interface()); err != nil || !reflect.DeepEqual(typed.Elem().Interface(), want) {
				t.Errorf("%s %T: Load = %#v, %v", name, want, typed.Elem().Interface(), err)
			}
			var boxed any
			if err := st.Load("k", &boxed); err != nil || !reflect.DeepEqual(boxed, want) {
				t.Errorf("%s %T: Load into *any = %#v, %v", name, want, boxed, err)
			}
			// A pointer to any other type names what is there and what
			// was asked for.
			err := st.Load("k", new(struct{}))
			if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), fmt.Sprintf("have %T want struct {}", want)) {
				t.Errorf("%s %T: mismatched Load error = %v", name, want, err)
			}
		}
	}
	s := New()
	s.SetPrivate("k", 1)
	if err := s.Load("k", 7); !errors.Is(err, ErrUnsupportedType) {
		t.Errorf("Load into a non-pointer: %v, want ErrUnsupportedType", err)
	}
}

func TestStoredValueIsolatedFromCaller(t *testing.T) {
	s := New()
	data := []string{"a", "b"}
	s.SetPrivate("k", data)
	data[0] = "mutated"
	var got []string
	s.Load("k", &got)
	if got[0] != "a" {
		t.Fatal("stored value must be isolated from later caller mutation")
	}
}

func TestProtectionModesShoppingAgent(t *testing.T) {
	// The paper's shopping agent: gathered prices kept private; a protected
	// entry lets a specific server update a returning naplet.
	s := New()
	s.SetPrivate("prices", map[string]string{"widget": "$5"})
	s.SetProtected("updates", "v1", "home.server")
	s.SetPublic("query", "widget")

	alien := s.ServerView("alien.server")
	if _, err := alien.Get("prices"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("private must be forbidden to servers: %v", err)
	}
	if _, err := alien.Get("updates"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("protected must be forbidden to non-listed server: %v", err)
	}
	if v, err := alien.Get("query"); err != nil || v.(string) != "widget" {
		t.Fatalf("public must be visible: %v %v", v, err)
	}

	home := s.ServerView("home.server")
	if v, err := home.Get("updates"); err != nil || v.(string) != "v1" {
		t.Fatalf("listed server must read protected: %v %v", v, err)
	}
	if err := home.Update("updates", "v2"); err != nil {
		t.Fatalf("listed server must update protected: %v", err)
	}
	v, _ := s.Get("updates")
	if v.(string) != "v2" {
		t.Fatalf("update not visible to naplet: %v", v)
	}
}

func TestServerViewCannotWidenAccess(t *testing.T) {
	s := New()
	s.SetProtected("k", 1, "srv")
	view := s.ServerView("srv")
	if err := view.Update("k", 2); err != nil {
		t.Fatal(err)
	}
	// Mode and allow list must be preserved across server updates.
	if m, _ := s.ModeOf("k"); m != Protected {
		t.Fatalf("mode changed to %v", m)
	}
	other := s.ServerView("other")
	if _, err := other.Get("k"); !errors.Is(err, ErrForbidden) {
		t.Fatal("allow list must be preserved")
	}
}

func TestServerViewMissingAndUpdateErrors(t *testing.T) {
	s := New()
	v := s.ServerView("srv")
	if _, err := v.Get("nope"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("want ErrNoSuchKey, got %v", err)
	}
	if err := v.Update("nope", 1); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("want ErrNoSuchKey, got %v", err)
	}
	s.SetPrivate("priv", 1)
	if err := v.Update("priv", 2); !errors.Is(err, ErrForbidden) {
		t.Fatalf("want ErrForbidden, got %v", err)
	}
	if err := v.Update("priv", nil); !errors.Is(err, ErrNilValue) {
		t.Fatalf("nil update: %v", err)
	}
	if v.Server() != "srv" {
		t.Fatal("Server() mismatch")
	}
}

func TestServerViewKeys(t *testing.T) {
	s := New()
	s.SetPrivate("a", 1)
	s.SetPublic("b", 1)
	s.SetProtected("c", 1, "s1")
	s.SetProtected("d", 1, "s2")

	got := s.ServerView("s1").Keys()
	want := []string{"b", "c"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	all := s.Keys()
	if len(all) != 4 {
		t.Fatalf("naplet sees all keys: %v", all)
	}
}

func TestDeleteAndLen(t *testing.T) {
	s := New()
	s.SetPrivate("a", 1)
	s.SetPrivate("b", 2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Delete("a")
	s.Delete("missing") // no-op
	if s.Len() != 1 {
		t.Fatalf("Len after delete = %d", s.Len())
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatal("deleted key still present")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := New()
	s.SetPrivate("priv", 1)
	s.SetPublic("pub", "x")
	s.SetProtected("prot", 3.5, "srv")

	restored, _, err := DecodeBinary(s.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 3 {
		t.Fatalf("restored Len = %d", restored.Len())
	}
	v, err := restored.Get("prot")
	if err != nil || v.(float64) != 3.5 {
		t.Fatalf("restored prot: %v %v", v, err)
	}
	// Protection metadata must survive migration.
	if _, err := restored.ServerView("other").Get("prot"); !errors.Is(err, ErrForbidden) {
		t.Fatal("protection lost after round trip")
	}
	if v, err := restored.ServerView("srv").Get("prot"); err != nil || v.(float64) != 3.5 {
		t.Fatalf("allow list lost after round trip: %v %v", v, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	s.SetPrivate("k", 1)
	c := s.Clone()
	c.SetPrivate("k", 2)
	c.SetPrivate("extra", 3)
	if v, _ := s.Get("k"); v.(int) != 1 {
		t.Fatal("clone mutation leaked into parent")
	}
	if s.Len() != 1 || c.Len() != 2 {
		t.Fatalf("lens: parent %d clone %d", s.Len(), c.Len())
	}
}

func TestSizeAccounting(t *testing.T) {
	s := New()
	if s.Size() != 0 {
		t.Fatal("empty size must be 0")
	}
	s.SetPrivate("k", "some payload")
	if s.Size() <= 0 {
		t.Fatal("size must grow with content")
	}
	small := s.Size()
	s.SetPrivate("k2", bytes.Repeat([]byte("x"), 1024))
	if s.Size() <= small {
		t.Fatal("size must grow with larger content")
	}
}

func TestSetReplacesModeAndValue(t *testing.T) {
	s := New()
	s.SetPublic("k", 1)
	s.SetPrivate("k", 2)
	if m, _ := s.ModeOf("k"); m != Private {
		t.Fatalf("mode = %v, want Private", m)
	}
	if _, err := s.ServerView("srv").Get("k"); !errors.Is(err, ErrForbidden) {
		t.Fatal("replaced entry must use new mode")
	}
}

func TestModeString(t *testing.T) {
	if Private.String() != "private" || Protected.String() != "protected" || Public.String() != "public" {
		t.Fatal("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Fatal("unknown mode formatting")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g)
			for i := 0; i < 100; i++ {
				s.Set(key, i, Public)
				s.Get(key)
				s.ServerView("srv").Get(key)
				s.Keys()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestPropStateRoundTrip(t *testing.T) {
	f := func(key string, value string, public bool) bool {
		s := New()
		mode := Private
		if public {
			mode = Public
		}
		if err := s.Set(key, value, mode); err != nil {
			return false
		}
		got, err := s.Get(key)
		if err != nil {
			return false
		}
		if got.(string) != value {
			return false
		}
		m, err := s.ModeOf(key)
		return err == nil && m == mode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropBinaryPreservesEverything(t *testing.T) {
	f := func(keys []string, vals []string) bool {
		s := New()
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			if err := s.Set(keys[i], vals[i], Mode(i%3)); err != nil {
				return false
			}
		}
		enc := s.AppendBinary(nil)
		r, rest, err := DecodeBinary(enc)
		if err != nil || len(rest) != 0 || len(enc) != s.EncodedSize() {
			return false
		}
		if r.Len() != s.Len() {
			return false
		}
		for _, k := range s.Keys() {
			a, err1 := s.Get(k)
			b, err2 := r.Get(k)
			if err1 != nil || err2 != nil || a.(string) != b.(string) {
				return false
			}
			ma, _ := s.ModeOf(k)
			mb, _ := r.ModeOf(k)
			if ma != mb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

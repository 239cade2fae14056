package cred

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/id"
)

var (
	t0  = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)
	nid = id.MustNew("czxu", "ece.eng.wayne.edu", t0)
)

func ring(t *testing.T) *KeyRing {
	t.Helper()
	k := NewKeyRing()
	k.Register("czxu", []byte("secret-key-czxu"))
	return k
}

func TestIssueAndVerify(t *testing.T) {
	k := ring(t)
	c, err := k.Issue(nid, "naplet.NMNaplet", []string{"netadmin"}, t0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(c, t0.Add(time.Hour)); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !c.HasRole("netadmin") || c.HasRole("guest") {
		t.Fatal("role membership wrong")
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	k := ring(t)
	c, _ := k.Issue(nid, "naplet.NMNaplet", []string{"netadmin"}, t0, time.Time{})

	tampered := c
	tampered.Codebase = "naplet.EvilNaplet"
	if err := k.Verify(tampered, t0); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("codebase tampering not detected: %v", err)
	}

	tampered = c
	tampered.Roles = []string{"root"}
	if err := k.Verify(tampered, t0); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("role tampering not detected: %v", err)
	}

	tampered = c
	other, _ := nid.Clone(1)
	tampered.NapletID = other
	if err := k.Verify(tampered, t0); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("ID tampering not detected: %v", err)
	}

	tampered = c
	tampered.Signature = append([]byte(nil), c.Signature...)
	tampered.Signature[0] ^= 1
	if err := k.Verify(tampered, t0); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("signature bit flip not detected: %v", err)
	}
}

// TestVerifyValidityWindow: a credential is valid from its issue time
// through its expiry, both ends included; one without an expiry never
// expires.
func TestVerifyValidityWindow(t *testing.T) {
	k := ring(t)
	expiring, _ := k.Issue(nid, "cb", nil, t0, t0.Add(time.Hour))
	lasting, _ := k.Issue(nid, "cb", nil, t0, time.Time{})
	for _, tc := range []struct {
		name string
		c    Credential
		at   time.Time
		want error
	}{
		{"before issue", expiring, t0.Add(-time.Nanosecond), ErrNotYetValid},
		{"at issue", expiring, t0, nil},
		{"inside", expiring, t0.Add(30 * time.Minute), nil},
		{"at expiry", expiring, t0.Add(time.Hour), nil},
		{"just after expiry", expiring, t0.Add(time.Hour + time.Nanosecond), ErrExpired},
		{"long after expiry", expiring, t0.Add(48 * time.Hour), ErrExpired},
		{"no expiry, years on", lasting, t0.AddDate(10, 0, 0), nil},
		{"no expiry, before issue", lasting, t0.Add(-time.Nanosecond), ErrNotYetValid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := k.Verify(tc.c, tc.at)
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Verify at %v = %v, want %v", tc.at.Sub(t0), err, tc.want)
			}
		})
	}
}

func TestVerifyUnknownOwner(t *testing.T) {
	k := ring(t)
	c, _ := k.Issue(nid, "cb", nil, t0, time.Time{})
	k.Remove("czxu")
	if err := k.Verify(c, t0); !errors.Is(err, ErrUnknownOwner) {
		t.Fatalf("want ErrUnknownOwner, got %v", err)
	}
	if _, err := k.Issue(nid, "cb", nil, t0, time.Time{}); !errors.Is(err, ErrUnknownOwner) {
		t.Fatalf("Issue without key: %v", err)
	}
}

func TestVerifyWrongKey(t *testing.T) {
	k := ring(t)
	c, _ := k.Issue(nid, "cb", nil, t0, time.Time{})
	k.Register("czxu", []byte("rotated"))
	if err := k.Verify(c, t0); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature after key rotation, got %v", err)
	}
}

func TestReissueForClone(t *testing.T) {
	k := ring(t)
	parent, _ := k.Issue(nid, "naplet.NMNaplet", []string{"netadmin"}, t0, t0.Add(time.Hour))
	cloneID, _ := nid.Clone(1)
	child, err := k.Reissue(parent, cloneID)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(child, t0); err != nil {
		t.Fatalf("clone credential invalid: %v", err)
	}
	if child.Codebase != parent.Codebase {
		t.Fatal("clone must inherit codebase")
	}
	if !child.HasRole("netadmin") {
		t.Fatal("clone must inherit roles")
	}
	if !child.NapletID.Equal(cloneID) {
		t.Fatal("clone credential must name the clone")
	}
}

func TestRolesOrderIndependentSignature(t *testing.T) {
	k := ring(t)
	a, _ := k.Issue(nid, "cb", []string{"x", "y"}, t0, time.Time{})
	b := a
	b.Roles = []string{"y", "x"}
	if err := k.Verify(b, t0); err != nil {
		t.Fatalf("role order must not affect signature: %v", err)
	}
}

func TestPropIssueVerifyAlwaysAuthentic(t *testing.T) {
	k := ring(t)
	f := func(codebase string, role string) bool {
		c, err := k.Issue(nid, codebase, []string{role}, t0, time.Time{})
		if err != nil {
			return false
		}
		return k.Verify(c, t0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentKeyRing(t *testing.T) {
	k := NewKeyRing()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			k.Register("czxu", []byte{byte(i)})
		}
	}()
	for i := 0; i < 200; i++ {
		k.Issue(nid, "cb", nil, t0, time.Time{}) // must not race
	}
	<-done
}

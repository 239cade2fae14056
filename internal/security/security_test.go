package security

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
)

var t0 = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)

func issue(t *testing.T, ring *cred.KeyRing, owner, codebase string, roles ...string) cred.Credential {
	t.Helper()
	nid := id.MustNew(owner, "home", t0)
	c, err := ring.Issue(nid, codebase, roles, t0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newRing(t *testing.T, owners ...string) *cred.KeyRing {
	t.Helper()
	ring := cred.NewKeyRing()
	for _, o := range owners {
		ring.Register(o, []byte("key-"+o))
	}
	return ring
}

func TestPolicyFirstMatchWins(t *testing.T) {
	ring := newRing(t, "alice")
	c := issue(t, ring, "alice", "cb")
	p := Policy{
		Rules: []Rule{
			{Principal: "owner:alice", Permissions: []Permission{PermLanding}, Effect: Deny},
			{Principal: "*", Permissions: []Permission{"*"}, Effect: Allow},
		},
	}
	if p.Decide(&c, PermLanding) != Deny {
		t.Fatal("first matching rule must win")
	}
	if p.Decide(&c, PermLaunch) != Allow {
		t.Fatal("later wildcard rule must apply to other permissions")
	}
}

func TestPolicyDefault(t *testing.T) {
	ring := newRing(t, "alice")
	c := issue(t, ring, "alice", "cb")
	var deny Policy // zero value: default deny
	if deny.Decide(&c, PermLaunch) != Deny {
		t.Fatal("zero policy must deny")
	}
	if AllowAll.Decide(&c, PermLaunch) != Allow {
		t.Fatal("AllowAll must allow")
	}
}

func TestPrincipalForms(t *testing.T) {
	ring := newRing(t, "alice", "bob")
	admin := issue(t, ring, "alice", "app.NM", "netadmin")
	guest := issue(t, ring, "bob", "app.Shop")

	cases := []struct {
		principal Principal
		c         *cred.Credential
		want      bool
	}{
		{"*", &admin, true},
		{"owner:alice", &admin, true},
		{"owner:alice", &guest, false},
		{"role:netadmin", &admin, true},
		{"role:netadmin", &guest, false},
		{"codebase:app.NM", &admin, true},
		{"codebase:app.NM", &guest, false},
		{"garbage", &admin, false},
	}
	for _, tc := range cases {
		if got := tc.principal.matches(tc.c); got != tc.want {
			t.Errorf("%q matches %s = %v, want %v", tc.principal, tc.c.NapletID, got, tc.want)
		}
	}
}

func TestManagerVerifiesSignature(t *testing.T) {
	ring := newRing(t, "alice")
	c := issue(t, ring, "alice", "cb")
	m := NewManager(ring, AllowAll, func() time.Time { return t0 })
	if err := m.CheckLanding(&c); err != nil {
		t.Fatalf("valid credential rejected: %v", err)
	}
	tampered := c
	tampered.Codebase = "evil"
	if err := m.CheckLanding(&tampered); !errors.Is(err, ErrBadCredential) {
		t.Fatalf("tampered credential accepted: %v", err)
	}
	if err := m.CheckLanding(nil); !errors.Is(err, ErrBadCredential) {
		t.Fatalf("nil credential: %v", err)
	}
}

func TestManagerExpiredCredential(t *testing.T) {
	ring := newRing(t, "alice")
	nid := id.MustNew("alice", "home", t0)
	c, _ := ring.Issue(nid, "cb", nil, t0, t0.Add(time.Hour))
	m := NewManager(ring, AllowAll, func() time.Time { return t0.Add(2 * time.Hour) })
	if err := m.CheckLanding(&c); !errors.Is(err, ErrBadCredential) || !errors.Is(err, cred.ErrExpired) {
		t.Fatalf("expired credential accepted, or its cause lost: %v", err)
	}
}

func TestManagerWithoutRingSkipsVerification(t *testing.T) {
	ring := newRing(t, "alice")
	c := issue(t, ring, "alice", "cb")
	c.Signature = nil // would fail verification
	m := NewManager(nil, AllowAll, nil)
	if err := m.CheckLanding(&c); err != nil {
		t.Fatalf("ring-less manager must skip verification: %v", err)
	}
}

func TestManagerPolicyDecisions(t *testing.T) {
	ring := newRing(t, "alice", "bob")
	admin := issue(t, ring, "alice", "app.NM", "netadmin")
	guest := issue(t, ring, "bob", "app.Shop")

	policy := Policy{
		Rules: []Rule{
			{Principal: "role:netadmin", Permissions: []Permission{"*"}, Effect: Allow},
			{Principal: "*", Permissions: []Permission{PermLanding, PermLaunch, PermMessage}, Effect: Allow},
		},
		Default: Deny,
	}
	m := NewManager(ring, policy, func() time.Time { return t0 })

	if err := m.CheckLanding(&guest); err != nil {
		t.Fatalf("guest landing: %v", err)
	}
	if err := m.Check(&guest, ServicePermission("snmp")); !errors.Is(err, ErrDenied) {
		t.Fatalf("guest service access must be denied: %v", err)
	}
	if err := m.Check(&admin, ServicePermission("snmp")); err != nil {
		t.Fatalf("admin service access: %v", err)
	}
	if err := m.CheckClone(&guest); !errors.Is(err, ErrDenied) {
		t.Fatalf("guest clone must be denied: %v", err)
	}
	if err := m.CheckClone(&admin); err != nil {
		t.Fatalf("admin clone: %v", err)
	}
}

func TestServicePermissionNaming(t *testing.T) {
	if ServicePermission("snmp") != "service:snmp" {
		t.Fatal("service permission naming")
	}
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Fatal("effect names")
	}
}

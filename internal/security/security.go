// Package security implements the NapletSecurityManager of §5.1: a
// policy-driven, permission-based access control component modelled on the
// JDK 1.2 security architecture.
//
// "A security policy is an access-control matrix that says what system
// resources can be accessed, in what fashion, and under what circumstances.
// Specifically, it maps a set of characteristic features of naplets to a set
// of access permission granted to the naplets. System administrators can
// configure the security policy according to the service requirements."
//
// The matrix here matches naplets by owner, role, or codebase and grants or
// denies named permissions. The Navigator consults the manager for LAUNCH
// and LANDING permissions (§2.2); the ResourceManager consults it before
// allocating service channels (§5.3). Credential signatures are verified at
// landing, closing the authentication gap the paper leaves "open for the
// future release".
package security

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cred"
)

// Permission names an action a naplet may be granted.
type Permission string

// Framework permissions. Service access uses ServicePermission.
const (
	// PermLaunch gates dispatching a naplet from this server (§2.2).
	PermLaunch Permission = "launch"
	// PermLanding gates accepting a naplet at this server (§2.2).
	PermLanding Permission = "landing"
	// PermClone gates Par-itinerary cloning.
	PermClone Permission = "clone"
	// PermMessage gates posting inter-naplet messages.
	PermMessage Permission = "message"
)

// ServicePermission names access to a privileged service.
func ServicePermission(service string) Permission {
	return Permission("service:" + service)
}

// Effect is the outcome a rule prescribes.
type Effect int

// Rule effects.
const (
	Deny Effect = iota
	Allow
)

// String returns the effect name.
func (e Effect) String() string {
	if e == Allow {
		return "allow"
	}
	return "deny"
}

// Principal selects naplets a rule applies to. Exactly one form:
//
//	"*"             every naplet
//	"owner:czxu"    naplets created by czxu
//	"role:netadmin" naplets whose credential carries the role
//	"codebase:X"    naplets running codebase X
type Principal string

// matches reports whether the principal selects the credential.
func (p Principal) matches(c *cred.Credential) bool {
	s := string(p)
	switch {
	case s == "*":
		return true
	case strings.HasPrefix(s, "owner:"):
		return c.NapletID.Owner() == s[len("owner:"):]
	case strings.HasPrefix(s, "role:"):
		return c.HasRole(s[len("role:"):])
	case strings.HasPrefix(s, "codebase:"):
		return c.Codebase == s[len("codebase:"):]
	default:
		return false
	}
}

// Rule is one row of the access-control matrix.
type Rule struct {
	// Principal selects the naplets the rule applies to.
	Principal Principal
	// Permissions the rule grants or denies; "*" matches every permission.
	Permissions []Permission
	// Effect is Allow or Deny.
	Effect Effect
}

// matches reports whether the rule covers (credential, permission).
func (r Rule) matches(c *cred.Credential, p Permission) bool {
	if !r.Principal.matches(c) {
		return false
	}
	for _, rp := range r.Permissions {
		if rp == "*" || rp == p {
			return true
		}
	}
	return false
}

// Policy is the access-control matrix: rules evaluated first-match-wins,
// with a configurable default for unmatched requests. The zero value denies
// everything.
type Policy struct {
	Rules []Rule
	// Default applies when no rule matches.
	Default Effect
}

// Decide returns the matrix's decision for (credential, permission).
func (p Policy) Decide(c *cred.Credential, perm Permission) Effect {
	for _, r := range p.Rules {
		if r.matches(c, perm) {
			return r.Effect
		}
	}
	return p.Default
}

// AllowAll is the promiscuous policy used by closed testbeds.
var AllowAll = Policy{Default: Allow}

// Errors reported by permission checks.
var (
	ErrDenied        = errors.New("security: permission denied")
	ErrBadCredential = errors.New("security: credential rejected")
)

// Manager is the per-server NapletSecurityManager. It verifies credentials
// against a key ring and evaluates the policy the server was configured
// with ("system administrators can configure the security policy", §5.1).
// It is immutable once built, so safe for concurrent use.
type Manager struct {
	ring   *cred.KeyRing
	policy Policy
	now    func() time.Time
}

// NewManager builds a security manager. If ring is nil, credential
// signature verification is skipped (the paper's first release behaviour);
// if now is nil, time.Now is used.
func NewManager(ring *cred.KeyRing, policy Policy, now func() time.Time) *Manager {
	if now == nil {
		now = time.Now
	}
	return &Manager{ring: ring, policy: policy, now: now}
}

// Check verifies the credential (when a key ring is configured) and
// evaluates the policy for the permission. A nil error grants the
// permission.
func (m *Manager) Check(c *cred.Credential, perm Permission) error {
	if c == nil {
		return fmt.Errorf("%w: no credential", ErrBadCredential)
	}
	if m.ring != nil {
		if err := m.ring.Verify(*c, m.now()); err != nil {
			return fmt.Errorf("%w: %w", ErrBadCredential, err)
		}
	}
	if m.policy.Decide(c, perm) != Allow {
		return fmt.Errorf("%w: %s for naplet %s", ErrDenied, perm, c.NapletID)
	}
	return nil
}

// CheckLaunch gates dispatching a naplet from this server.
func (m *Manager) CheckLaunch(c *cred.Credential) error { return m.Check(c, PermLaunch) }

// CheckLanding gates accepting an inbound naplet.
func (m *Manager) CheckLanding(c *cred.Credential) error { return m.Check(c, PermLanding) }

// CheckClone gates Par-itinerary cloning.
func (m *Manager) CheckClone(c *cred.Credential) error { return m.Check(c, PermClone) }

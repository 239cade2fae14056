// Package cred implements naplet credentials (§2.1, §5 of the Naplet paper).
//
// A credential certifies the immutable attributes of a naplet — its
// identifier and codebase — with the creator's digital signature, so that
// naplet servers can determine naplet-specific security and access-control
// policies from a trustworthy principal. The paper builds on the JDK 1.2
// security architecture; here signatures are HMAC-SHA256 over a canonical
// encoding, with a KeyRing standing in for the certificate authority that a
// production deployment would use.
package cred

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/id"
)

// Errors reported by credential verification.
var (
	ErrBadSignature = errors.New("cred: signature verification failed")
	ErrExpired      = errors.New("cred: credential expired")
	ErrUnknownOwner = errors.New("cred: no key registered for owner")
	ErrNotYetValid  = errors.New("cred: credential not yet valid")
)

// Credential binds a naplet's immutable attributes to its creator. The zero
// value is an unsigned, invalid credential. Credentials are set at creation
// time and cannot be altered in the naplet life cycle; Verify detects any
// tampering with the signed fields.
type Credential struct {
	// NapletID is the identifier being certified.
	NapletID id.NapletID
	// Codebase names the agent code the naplet runs (the paper's codebase
	// URL; here a registry name, see internal/registry).
	Codebase string
	// Roles carries principal roles used by security policies, e.g.
	// "netadmin" or "guest". Sorted canonically before signing.
	Roles []string
	// IssuedAt and ExpiresAt bound the validity interval. A zero ExpiresAt
	// means the credential never expires.
	IssuedAt  time.Time
	ExpiresAt time.Time
	// Signature is the HMAC-SHA256 of the canonical encoding under the
	// owner's key.
	Signature []byte
}

// canonical returns the byte string that is signed. Field order and
// separators are fixed so any mutation of signed fields breaks verification.
func (c *Credential) canonical() []byte {
	roles := append([]string(nil), c.Roles...)
	sort.Strings(roles)
	var b strings.Builder
	b.WriteString("naplet-credential/v1\n")
	b.WriteString(c.NapletID.String())
	b.WriteByte('\n')
	b.WriteString(c.Codebase)
	b.WriteByte('\n')
	b.WriteString(strings.Join(roles, ","))
	b.WriteByte('\n')
	b.WriteString(c.IssuedAt.UTC().Format(time.RFC3339))
	b.WriteByte('\n')
	if !c.ExpiresAt.IsZero() {
		b.WriteString(c.ExpiresAt.UTC().Format(time.RFC3339))
	}
	b.WriteByte('\n')
	return []byte(b.String())
}

// HasRole reports whether the credential carries the given role.
func (c *Credential) HasRole(role string) bool {
	for _, r := range c.Roles {
		if r == role {
			return true
		}
	}
	return false
}

// KeyRing maps owners to signing keys. It stands in for the PKI that the
// paper leaves to "future release" (§5.1): the mechanism (sign at creation,
// verify at landing) is the paper's; the key distribution policy is
// pluggable. KeyRing is safe for concurrent use.
type KeyRing struct {
	mu   sync.RWMutex
	keys map[string][]byte
}

// NewKeyRing returns an empty key ring.
func NewKeyRing() *KeyRing {
	return &KeyRing{keys: make(map[string][]byte)}
}

// Register associates a signing key with an owner, replacing any previous
// key.
func (k *KeyRing) Register(owner string, key []byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.keys[owner] = append([]byte(nil), key...)
}

// Remove deletes the owner's key.
func (k *KeyRing) Remove(owner string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.keys, owner)
}

// key returns the owner's key.
func (k *KeyRing) key(owner string) ([]byte, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	key, ok := k.keys[owner]
	return key, ok
}

// Issue creates and signs a credential for the naplet with the given
// identifier and codebase under the identifier's owner key.
func (k *KeyRing) Issue(nid id.NapletID, codebase string, roles []string, issuedAt, expiresAt time.Time) (Credential, error) {
	key, ok := k.key(nid.Owner())
	if !ok {
		return Credential{}, fmt.Errorf("%w: %q", ErrUnknownOwner, nid.Owner())
	}
	c := Credential{
		NapletID:  nid,
		Codebase:  codebase,
		Roles:     append([]string(nil), roles...),
		IssuedAt:  issuedAt.UTC(),
		ExpiresAt: expiresAt,
	}
	if !expiresAt.IsZero() {
		c.ExpiresAt = expiresAt.UTC()
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(c.canonical())
	c.Signature = mac.Sum(nil)
	return c, nil
}

// Reissue signs a credential derived from parent for a cloned naplet. The
// clone inherits codebase, roles, and validity from its parent credential
// (§2.1: the address book "can also be inherited in naplet clone"; the same
// holds for the certified attributes, re-signed for the new identity).
func (k *KeyRing) Reissue(parent Credential, cloneID id.NapletID) (Credential, error) {
	return k.Issue(cloneID, parent.Codebase, parent.Roles, parent.IssuedAt, parent.ExpiresAt)
}

// Verify checks the credential's signature under its owner's registered key
// and its validity interval at time now. It returns nil if the credential is
// authentic and valid.
func (k *KeyRing) Verify(c Credential, now time.Time) error {
	key, ok := k.key(c.NapletID.Owner())
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOwner, c.NapletID.Owner())
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(c.canonical())
	if !hmac.Equal(mac.Sum(nil), c.Signature) {
		return ErrBadSignature
	}
	if now.Before(c.IssuedAt) {
		return ErrNotYetValid
	}
	if !c.ExpiresAt.IsZero() && now.After(c.ExpiresAt) {
		return ErrExpired
	}
	return nil
}

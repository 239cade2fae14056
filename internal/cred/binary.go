package cred

import (
	"repro/internal/id"
	"repro/internal/wire"
)

// Binary codec for credentials, embedded unversioned inside records and
// landing requests (the container owns the version byte). Layout:
//
//	[NapletID] [string codebase] [uvarint n] n×[string role]
//	[time issuedAt] [time expiresAt] [bytes signature]

// AppendBinary appends the credential's binary form to dst.
func (c *Credential) AppendBinary(dst []byte) []byte {
	dst = c.NapletID.AppendBinary(dst)
	dst = wire.AppendString(dst, c.Codebase)
	dst = wire.AppendStrings(dst, c.Roles)
	dst = wire.AppendTime(dst, c.IssuedAt)
	dst = wire.AppendTime(dst, c.ExpiresAt)
	return wire.AppendBytes(dst, c.Signature)
}

// DecodeBinary consumes one credential from b and returns the rest. The
// signature is copied, so the credential does not alias b.
func DecodeBinary(b []byte) (Credential, []byte, error) {
	var c Credential
	var err error
	if c.NapletID, b, err = id.DecodeBinary(b); err != nil {
		return Credential{}, nil, err
	}
	if c.Codebase, b, err = wire.DecString(b); err != nil {
		return Credential{}, nil, err
	}
	if c.Roles, b, err = wire.DecStrings(b); err != nil {
		return Credential{}, nil, err
	}
	if c.IssuedAt, b, err = wire.DecTime(b); err != nil {
		return Credential{}, nil, err
	}
	if c.ExpiresAt, b, err = wire.DecTime(b); err != nil {
		return Credential{}, nil, err
	}
	sig, b, err := wire.DecBytes(b)
	if err != nil {
		return Credential{}, nil, err
	}
	if sig != nil {
		c.Signature = append([]byte(nil), sig...)
	}
	return c, b, nil
}

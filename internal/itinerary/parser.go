package itinerary

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse builds a pattern from the paper's operator notation:
//
//	pattern  := "seq" "(" list ")" | "alt" "(" list ")" | "par" "(" list ")" | visit
//	list     := pattern ("," pattern)*
//	visit    := ["<"] [guard "->"] server [";" action] [">"]
//	server, guard, action := identifiers ([A-Za-z0-9._:-]+)
//
// The angle brackets are the paper's <C -> S; T> rendering, as produced by
// Pattern.String; they are optional but must pair up. Examples accepted:
//
//	s0
//	par(seq(s0, s1), seq(s2, s3))
//	seq(s0, found -> s1; report)
//	seq(<s0>, <found -> s1; report>)
//
// Whitespace is insignificant. Parse validates the resulting pattern.
func Parse(input string) (*Pattern, error) {
	p := &parser{src: input}
	pat, err := p.pattern()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("itinerary: trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	if err := pat.Validate(); err != nil {
		return nil, err
	}
	return pat, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func isIdentChar(c byte) bool {
	return c == '.' || c == '_' || c == ':' || c == '-' ||
		(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (p *parser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isIdentChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("itinerary: expected identifier at offset %d", start)
	}
	return p.src[start:p.pos], nil
}

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return fmt.Errorf("itinerary: expected %q at offset %d", string(c), p.pos)
	}
	p.pos++
	return nil
}

// lookaheadOperator reports whether an identifier is one of the composite
// operators followed by '('.
func (p *parser) lookaheadOperator() (string, bool) {
	p.skipSpace()
	for _, op := range []string{"seq", "alt", "par"} {
		rest := p.src[p.pos:]
		if strings.HasPrefix(rest, op) {
			after := rest[len(op):]
			trimmed := strings.TrimLeftFunc(after, unicode.IsSpace)
			if strings.HasPrefix(trimmed, "(") {
				return op, true
			}
		}
	}
	return "", false
}

func (p *parser) pattern() (*Pattern, error) {
	if op, ok := p.lookaheadOperator(); ok {
		p.skipSpace()
		p.pos += len(op)
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var subs []*Pattern
		for {
			sub, err := p.pattern()
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		switch op {
		case "seq":
			return Seq(subs...), nil
		case "alt":
			return Alt(subs...), nil
		default:
			return Par(subs...), nil
		}
	}
	return p.visit()
}

func (p *parser) visit() (*Pattern, error) {
	p.skipSpace()
	bracketed := false
	if p.peek() == '<' {
		p.pos++
		bracketed = true
	}
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	v := Visit{Server: first}
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], "->") {
		p.pos += 2
		server, err := p.ident()
		if err != nil {
			return nil, err
		}
		v.Guard = first
		v.Server = server
		p.skipSpace()
	}
	if p.peek() == ';' {
		p.pos++
		action, err := p.ident()
		if err != nil {
			return nil, err
		}
		v.Action = action
	}
	if bracketed {
		if err := p.expect('>'); err != nil {
			return nil, err
		}
	}
	return Singleton(v), nil
}

// Package patterns defines the Sequence-RTG pattern model: an ordered list
// of elements, each either fixed literal text or a typed variable, together
// with the persistent metadata the paper attaches to every pattern
// (reproducible SHA-1 identifier, match statistics, up to three example
// messages, and a complexity score used to rank patterns for review).
package patterns

import (
	"crypto/sha1"
	"encoding/hex"
	"time"

	"repro/internal/token"
)

// Element is one position of a pattern: either a fixed literal or a typed
// variable placeholder.
type Element struct {
	// Type is the token class this element accepts. For a literal element
	// it is token.Literal and Value holds the exact text. For a variable
	// element created by merging differing literals, Type is token.Literal
	// and Var is true ("string" variable).
	Type token.Type `json:"type"`
	// Var reports whether this element is a variable placeholder.
	Var bool `json:"var,omitempty"`
	// Value is the literal text (literal elements only).
	Value string `json:"value,omitempty"`
	// Name is the variable name used in the %name% text form.
	Name string `json:"name,omitempty"`
	// SpaceBefore preserves the original message spacing (isSpaceBefore in
	// the paper); it makes reconstruction and export byte exact.
	SpaceBefore bool `json:"space,omitempty"`
	// Key is the key of a key=value pair this variable is the value of.
	Key string `json:"key,omitempty"`
}

// Matches reports whether a single token satisfies this element.
//
// A literal element requires an identical token value (of any class, so a
// constant-folded integer such as a fixed port number still matches the
// Integer token it scans as). A typed variable accepts exactly its own
// token class: a "string" variable (merged literals) accepts only Literal
// tokens. This strictness is deliberate — it is what makes a
// sometimes-numeric, sometimes-alphanumeric field produce two patterns for
// one event, the Proxifier limitation the paper documents in §IV.
func (e Element) Matches(t token.Token) bool {
	if e.Type == token.TailAny {
		return true
	}
	if !e.Var {
		// string(span) == string compiles to an allocation-free compare;
		// matching is the hot path and must not materialise token values.
		return string(t.Span) == e.Value
	}
	return t.Type == e.Type
}

// Pattern is a discovered message template plus its persistent metadata.
type Pattern struct {
	// ID is the reproducible pattern identifier:
	// hex(sha1(text || "\x00" || service)). Reproducibility across runs and
	// machines is required so that re-discovered patterns collate with
	// their stored statistics.
	ID string `json:"id"`
	// Service is the source system the pattern belongs to. Patterns never
	// cross services (one-to-many services relationship in the paper is
	// realised by one row per (pattern text, service) pair, which is what
	// the ID hash encodes).
	Service string `json:"service"`
	// Elements is the ordered template.
	Elements []Element `json:"elements"`
	// Examples holds up to MaxExamples unique example messages, used as
	// patterndb test cases and for administrator review.
	Examples []string `json:"examples,omitempty"`
	// Count is the number of messages matched since discovery.
	Count int64 `json:"count"`
	// FirstSeen and LastMatched bound the pattern's activity window.
	FirstSeen   time.Time `json:"first_seen"`
	LastMatched time.Time `json:"last_matched"`
	// Multiline records that the source messages had additional lines that
	// the pattern ignores (TailAny marker).
	Multiline bool `json:"multiline,omitempty"`
}

// MaxExamples is the number of unique example messages kept per pattern.
const MaxExamples = 3

// TokenCount returns the number of message tokens the pattern consumes,
// excluding the TailAny marker. It is the partition key of the second
// partitioning stage of AnalyzeByService.
func (p *Pattern) TokenCount() int {
	n := 0
	for _, e := range p.Elements {
		if e.Type != token.TailAny {
			n++
		}
	}
	return n
}

// Match reports whether the token sequence matches this pattern, along
// with a specificity score (the number of literal elements matched). The
// parser uses the score to prefer the most specific of several candidate
// patterns.
func (p *Pattern) Match(tokens []token.Token) (score int, ok bool) {
	i := 0
	for _, e := range p.Elements {
		if e.Type == token.TailAny {
			return score, true // ignore everything after the first line
		}
		if i >= len(tokens) {
			return 0, false
		}
		if !e.Matches(tokens[i]) {
			return 0, false
		}
		// Whitespace-exact matching: isSpaceBefore is part of the pattern
		// (§III); "uid=0" and "uid = 0" are different patterns. The first
		// position is exempt because leading whitespace is presentation.
		if i > 0 && e.SpaceBefore != tokens[i].SpaceBefore {
			return 0, false
		}
		if !e.Var {
			score++
		}
		i++
	}
	if i != len(tokens) {
		// The message may carry a TailAny marker that the pattern lacks.
		if i == len(tokens)-1 && tokens[i].Type == token.TailAny {
			return 0, false
		}
		return 0, false
	}
	return score, true
}

// Extract matches the token sequence and, on success, returns the values
// captured by each variable, keyed by variable name. This is the "small
// amount of information extracted from the message" that the production
// workflow passes along with matched messages (§II).
func (p *Pattern) Extract(tokens []token.Token) (map[string]string, bool) {
	if _, ok := p.Match(tokens); !ok {
		return nil, false
	}
	vals := make(map[string]string)
	for i, e := range p.Elements {
		if e.Type == token.TailAny {
			break
		}
		if e.Var {
			vals[e.Name] = tokens[i].Value()
		}
	}
	return vals, true
}

// Text renders the pattern in Sequence's native text form, with variables
// delimited by '%' and original spacing preserved:
//
//	%action% from %srcip% port %srcport%
func (p *Pattern) Text() string {
	var buf [128]byte // most texts fit, so rendering allocates only the string
	return string(p.appendText(buf[:0]))
}

func (p *Pattern) appendText(b []byte) []byte {
	for i, e := range p.Elements {
		if e.SpaceBefore && i > 0 {
			b = append(b, ' ')
		}
		switch {
		case e.Type == token.TailAny:
			b = append(b, "%tailany%"...)
		case e.Var:
			b = append(b, '%')
			b = append(b, e.Name...)
			b = append(b, '%')
		default:
			b = append(b, e.Value...)
		}
	}
	return b
}

// ComputeID derives the reproducible SHA-1 identifier from the pattern
// text and service and stores it in p.ID.
func (p *Pattern) ComputeID() string {
	p.ID = HashID(p.Text(), p.Service)
	return p.ID
}

// HashID is the identifier function: hex(sha1(text || NUL || service)).
func HashID(text, service string) string {
	h := sha1.New()
	h.Write([]byte(text))
	h.Write([]byte{0})
	h.Write([]byte(service))
	return hex.EncodeToString(h.Sum(nil))
}

// Complexity scores the pattern in [0,1]: the fraction of word positions
// (punctuation excluded) that are variables. Patterns consisting entirely
// of variables score 1.0 — "overly patternised" in the paper's words — and
// export thresholds use this to keep only the strongest patterns.
func (p *Pattern) Complexity() float64 {
	words, vars := 0, 0
	for _, e := range p.Elements {
		if e.Type == token.TailAny {
			continue
		}
		if !e.Var {
			if len(e.Value) == 1 && !isWordByte(e.Value[0]) {
				continue // punctuation carries no information either way
			}
			words++
			continue
		}
		words++
		vars++
	}
	if words == 0 {
		return 1
	}
	return float64(vars) / float64(words)
}

// Clone returns a deep copy of the pattern: the Elements and Examples
// slices are copied, so mutating the clone (or the original) never
// reaches through to the other. The store hands out clones to keep its
// internal state unaliased.
func (p *Pattern) Clone() *Pattern {
	cp := *p
	if p.Elements != nil {
		cp.Elements = append([]Element(nil), p.Elements...)
	}
	if p.Examples != nil {
		cp.Examples = append([]string(nil), p.Examples...)
	}
	return &cp
}

// AddExample records a message as an example if fewer than MaxExamples
// unique examples are stored. It reports whether the example was added.
func (p *Pattern) AddExample(msg string) bool {
	if len(p.Examples) >= MaxExamples {
		return false
	}
	for _, e := range p.Examples {
		if e == msg {
			return false
		}
	}
	p.Examples = append(p.Examples, msg)
	return true
}

func isWordByte(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// Package token implements the Sequence-RTG scanner: a single-pass,
// regex-free tokenizer for system log messages.
//
// Following the seminal Sequence design, the scanner runs three cooperating
// finite state machines over the raw message bytes:
//
//   - a hexadecimal FSM that recognises MAC addresses, IPv6 addresses and
//     long hexadecimal strings,
//   - a datetime FSM that recognises the common timestamp layouts found in
//     system logs (table driven, composable date and time parts), and
//   - a general FSM that recognises integers, floats, IPv4 addresses, URLs,
//     punctuation and literal words.
//
// The scanner needs no prior knowledge of the message format and never
// backtracks over consumed input. Every token records whether it was
// preceded by whitespace in the original message (IsSpaceBefore in the
// paper); Sequence-RTG uses this to reconstruct patterns with the exact
// spacing of the source message, which is what makes the exported patterns
// usable by external parsers such as syslog-ng's patterndb.
//
// # Zero-allocation representation
//
// Tokens are byte-slice views (spans) into the scanned message, not string
// copies: Span and KeySpan alias either the caller's buffer (ScanBytes) or
// the scanner's internal copy of the message (Scan). Scanning therefore
// allocates nothing on the steady state, which is what the 1M+ msgs/s hot
// path target requires. The price is a lifetime rule: a token is valid
// only while its backing buffer is — until the next Scan/ScanBytes call on
// the same Scanner, until Release returns a pooled Scanner, or (for
// ScanBytes) until the caller recycles its own buffer. Callers that retain
// token values must materialise them with Value()/Key() first, or use
// ScanCopy, which returns self-contained tokens. DESIGN.md's "hot path"
// section states the full ownership contract; the seqlint bufownership
// analyzer machine-checks the Release half of it.
package token

import "strings"

// Type identifies the syntactic class of a token. The scan-time types are
// the eight classes listed in the paper (Time, IPv4, IPv6, Mac Address,
// Integer, Float, URL, Literal) plus HexString, which the original Sequence
// scanner also recognises. Email and Host are assigned by the analysis-time
// enrichment pass (see Enrich), not by the scanner itself.
type Type uint8

const (
	// Literal is static text: words, punctuation, brackets, quotes.
	Literal Type = iota
	// Time is a timestamp recognised by the datetime FSM.
	Time
	// IPv4 is a dotted-quad IPv4 address.
	IPv4
	// IPv6 is a colon-separated IPv6 address.
	IPv6
	// Mac is a colon- or dash-separated MAC address.
	Mac
	// Integer is a decimal integer, optionally signed.
	Integer
	// Float is a decimal floating point number, optionally signed.
	Float
	// URL is a scheme://... URL.
	URL
	// HexString is a long hexadecimal run (ids, digests, 0x-prefixed words).
	HexString
	// Email is user@domain.tld, assigned during analysis enrichment.
	Email
	// Host is a dotted host name, assigned during analysis enrichment.
	Host
	// TailAny marks the truncation point of a multi-line message: the
	// pattern matches the first line and ignores everything after.
	TailAny
	// Path is a filesystem path, recognised only when the optional path
	// FSM is enabled (Config.PathFSM) — the fourth state machine the
	// paper's future-work section calls for.
	Path
)

var typeNames = [...]string{
	Literal:   "literal",
	Time:      "time",
	IPv4:      "ipv4",
	IPv6:      "ipv6",
	Mac:       "mac",
	Integer:   "integer",
	Float:     "float",
	URL:       "url",
	HexString: "hexstring",
	Email:     "email",
	Host:      "host",
	TailAny:   "tailany",
	Path:      "path",
}

// typeByName inverts typeNames once at init so that ParseType is a map
// lookup instead of a linear scan (it runs for every %type% tag when
// pattern text is parsed back, e.g. on store replay).
var typeByName = func() map[string]Type {
	m := make(map[string]Type, len(typeNames))
	for i, n := range typeNames {
		m[n] = Type(i)
	}
	return m
}()

// String returns the lower-case tag name used in pattern text, e.g.
// "integer" for Integer.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "unknown"
}

// ParseType converts a tag name back to its Type. The second return value
// reports whether the name was recognised.
func ParseType(name string) (Type, bool) {
	t, ok := typeByName[name]
	return t, ok
}

// IsVariable reports whether tokens of this type are treated as variables
// by the analyzer: every type except Literal identifies a value class
// rather than fixed text.
func (t Type) IsVariable() bool { return t != Literal }

// Token is one logical piece of a log message.
//
// A token does not own its text: Span and KeySpan are views into the scan
// buffer (see the package comment for the lifetime rules). The Value, Key
// and Text accessors materialise fresh strings for callers that need to
// retain them; hot-path consumers work on the spans directly.
type Token struct {
	// Type is the syntactic class assigned by the scanner (or by Enrich).
	Type Type
	// SpaceBefore records whether the token was preceded by whitespace in
	// the original message. The first token of a message has
	// SpaceBefore == false.
	SpaceBefore bool
	// Span is the exact text of the token as it appeared in the message,
	// as a view into the scan buffer. It is nil for the TailAny marker.
	Span []byte
	// KeySpan is the key name when this token is the value of a key=value
	// pair, assigned by Enrich as a view of the key token's bytes
	// (original case; Key() lowercases). Nil otherwise.
	KeySpan []byte
}

// Value returns the token text as a freshly allocated string, safe to
// retain beyond the scan buffer's lifetime. Hot paths should prefer Span
// (or ValueEquals) to stay allocation free.
func (t Token) Value() string { return string(t.Span) }

// ValueEquals reports whether the token text equals s without allocating.
func (t Token) ValueEquals(s string) bool { return string(t.Span) == s }

// HasKey reports whether Enrich attached a key=value key to this token.
func (t Token) HasKey() bool { return len(t.KeySpan) > 0 }

// Key returns the lower-cased key=value key as a freshly allocated string
// ("" when the token has none). Enrich only accepts ASCII identifier keys,
// so ASCII lowering is exact.
func (t Token) Key() string {
	b := t.KeySpan
	if len(b) == 0 {
		return ""
	}
	for i := 0; i < len(b); i++ {
		if b[i] >= 'A' && b[i] <= 'Z' {
			low := make([]byte, len(b))
			for j := 0; j < len(b); j++ {
				c := b[j]
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				low[j] = c
			}
			return string(low)
		}
	}
	return string(b)
}

// KeyEquals reports whether the token's lower-cased key equals s (itself
// expected lower case, as stored by consumers) without allocating. A token
// with no key equals only "".
func (t Token) KeyEquals(s string) bool {
	if len(t.KeySpan) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := t.KeySpan[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// Make builds a self-contained token from a string value. It is the
// construction path for tests and for callers synthesising tokens outside
// a scan (the span is a private copy, so the lifetime rules do not apply).
func Make(typ Type, value string, space bool) Token {
	return Token{Type: typ, Span: []byte(value), SpaceBefore: space}
}

// IsPunct reports whether the token is a single punctuation literal.
func (t Token) IsPunct() bool {
	if t.Type != Literal || len(t.Span) != 1 {
		return false
	}
	return !isAlnum(t.Span[0])
}

// Reconstruct joins tokens back into the original message text, honouring
// each token's SpaceBefore property. Scanning a single-line message and
// reconstructing its tokens yields the message byte for byte (whitespace
// runs are normalised to a single space; the scanner records runs longer
// than one in the token value of the previous gap only as a single space,
// which is the Sequence-RTG behaviour).
func Reconstruct(tokens []Token) string {
	var b strings.Builder
	for _, t := range tokens {
		if t.SpaceBefore {
			b.WriteByte(' ')
		}
		if t.Type == TailAny {
			continue
		}
		b.Write(t.Span)
	}
	return b.String()
}

// Signature summarises a token slice as a compact string of type tags and
// literal values. Two messages with the same signature are candidates for
// the same pattern. It is used by tests and diagnostics.
func Signature(tokens []Token) string {
	var b strings.Builder
	for i, t := range tokens {
		if i > 0 {
			b.WriteByte('|')
		}
		if t.Type == Literal {
			b.Write(t.Span)
		} else {
			b.WriteByte('%')
			b.WriteString(t.Type.String())
			b.WriteByte('%')
		}
	}
	return b.String()
}

func isAlnum(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// Package reference is the FROZEN pre-PR-6 string-based scanner, kept
// verbatim as the differential-testing oracle. The live scanner in
// internal/token was redesigned around byte-slice spans (PR 6); this
// copy preserves the exact prior tokenization semantics. Do not evolve
// it: behavioural changes to the live scanner must keep parity with
// this package (see internal/token/parity_test.go) or consciously
// retire the affected case here with a comment.
//
// Historical doc: Package token implements the Sequence-RTG scanner: a single-pass,
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
package reference

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
	for i, n := range typeNames {
		if n == name {
			return Type(i), true
		}
	}
	return Literal, false
}

// IsVariable reports whether tokens of this type are treated as variables
// by the analyzer: every type except Literal identifies a value class
// rather than fixed text.
func (t Type) IsVariable() bool { return t != Literal }

// Token is one logical piece of a log message.
type Token struct {
	// Type is the syntactic class assigned by the scanner (or by Enrich).
	Type Type
	// Value is the exact text of the token as it appeared in the message.
	Value string
	// SpaceBefore records whether the token was preceded by whitespace in
	// the original message. The first token of a message has
	// SpaceBefore == false.
	SpaceBefore bool
	// Key is the key name when this token is the value of a key=value
	// pair, assigned by Enrich. Empty otherwise.
	Key string
}

// IsPunct reports whether the token is a single punctuation literal.
func (t Token) IsPunct() bool {
	if t.Type != Literal || len(t.Value) != 1 {
		return false
	}
	c := t.Value[0]
	return !isAlnum(c)
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
		b.WriteString(t.Value)
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
			b.WriteString(t.Value)
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

func isSpace(c byte) bool { return c == ' ' || c == '\t' }

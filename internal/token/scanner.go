package token

import (
	"bytes"
	"sync"
)

// hard delimiters always form their own single-byte literal token.
const hardDelims = `()[]{}"',;=<>|`

// Byte classes. scanInto looks up the class of the byte at each token
// start once and enters an FSM only when that byte can begin one of its
// matches, so text that holds no timestamp or URL never pays for their
// reject paths. The table is derived at init from hardDelims,
// timeLayouts and urlSchemes, which stay the only place each is listed.
const (
	clSpace     byte = 1 << iota // ' ' and '\t'
	clEOL                        // '\n' and '\r'
	clHard                       // one of hardDelims
	clHex                        // may begin a hexadecimal FSM match
	clTimeDigit                  // a digit: may begin a layout of timeIndex
	clTimeOther                  // may begin one of timeOther
	clURL                        // initial of one of urlSchemes

	clWordEnd = clSpace | clEOL | clHard
)

var class = func() (t [256]byte) {
	t[' '], t['\t'] = clSpace, clSpace
	t['\n'], t['\r'] = clEOL, clEOL
	for i := 0; i < len(hardDelims); i++ {
		t[hardDelims[i]] |= clHard
	}
	for c := range t {
		if isHexDigit(byte(c)) || c == ':' {
			t[c] |= clHex
		}
		if isDigit(byte(c)) {
			t[c] |= clTimeDigit
		}
	}
	for _, l := range timeOther {
		for _, c := range firstBytes(l.pattern[0]) {
			t[c] |= clTimeOther
		}
	}
	for _, s := range urlSchemes {
		t[s[0]] |= clURL
	}
	return t
}()

// Config enables the optional scanner extensions from the paper's
// future-work section (§VI). The zero value is the published Sequence-RTG
// scanner.
type Config struct {
	// UnpaddedTimes lets the datetime FSM accept single-digit time parts
	// ("20171224-0:7:20:444"), fixing the HealthApp limitation of §IV.
	UnpaddedTimes bool
	// PathFSM enables the fourth finite state machine: absolute
	// filesystem paths become their own token class instead of literals.
	PathFSM bool
}

// Scanner tokenizes log messages. The zero value is ready to use; a single
// Scanner may be reused across messages but not across goroutines. Hot
// paths should borrow a pooled instance with NewScanner and return it with
// Release, which recycles both the token slice and the copy buffer.
type Scanner struct {
	// Config holds the optional extensions; the zero value reproduces
	// the paper's scanner exactly.
	Config Config
	// buf is reused between Scan calls to avoid per-message allocation of
	// the token slice backing array.
	buf []Token
	// src is the reusable copy buffer backing the spans of string-based
	// Scan calls.
	src []byte
}

// scannerPool recycles Scanners (token slice + copy buffer) across
// goroutines. The pooled scan state is what makes the string adapters
// allocation free after warm-up.
var scannerPool = sync.Pool{New: func() any { return new(Scanner) }}

// NewScanner returns a pooled Scanner configured with cfg. Callers must
// Release it when done; every token produced by the scanner dies with the
// Release (its spans alias the pooled buffers, which the next borrower
// overwrites).
func NewScanner(cfg Config) *Scanner {
	s := scannerPool.Get().(*Scanner)
	s.Config = cfg
	return s
}

// Release returns a pooled Scanner for reuse. All tokens it produced
// become invalid: their spans alias buffers that the pool hands to the
// next NewScanner caller. The seqlint bufownership analyzer flags token
// uses after a Release in the same function.
func (s *Scanner) Release() {
	s.buf = s.buf[:0]
	s.src = s.src[:0]
	scannerPool.Put(s)
}

// ScanBytes tokenizes one log message given as raw bytes and returns its
// tokens. This is the zero-copy hot path: token spans alias msg directly,
// so the caller must keep msg unchanged for as long as it uses the tokens
// (a network listener that recycles its datagram buffer must finish with
// the tokens first). The returned slice is valid until the next call to
// Scan or ScanBytes on the same Scanner.
//
// Multi-line messages are processed only up to the first line break, per
// the Sequence-RTG design: a TailAny marker token is appended so that the
// resulting pattern matches the first line and ignores the rest.
//
//seqrtg:noalloc
func (s *Scanner) ScanBytes(msg []byte) []Token {
	s.buf = s.scanInto(s.buf[:0], msg)
	return s.buf
}

// Scan tokenizes one log message given as a string. It is the thin
// adapter over ScanBytes: the message is copied once into the scanner's
// reusable buffer (no allocation on the steady state) and the tokens'
// spans alias that buffer. The returned slice is valid until the next
// call to Scan or ScanBytes on the same Scanner; callers that retain
// tokens must copy them (ScanCopy does this).
//
//seqrtg:noalloc
func (s *Scanner) Scan(msg string) []Token {
	s.src = append(s.src[:0], msg...)
	s.buf = s.scanInto(s.buf[:0], s.src)
	return s.buf
}

// ScanCopy is Scan but returns self-contained tokens safe to retain: the
// message is copied into a fresh private buffer and the token slice is
// freshly allocated, so neither is invalidated by later scans or by
// Release.
func (s *Scanner) ScanCopy(msg string) []Token {
	src := []byte(msg)
	return s.scanInto(nil, src)
}

// scanInto runs the scanner FSMs over src, appending tokens (whose spans
// alias src) to dst.
//
//seqrtg:noalloc
func (s *Scanner) scanInto(dst []Token, src []byte) []Token {
	i := 0
	spaceBefore := false

	for i < len(src) {
		cl := class[src[i]]
		if cl&clSpace != 0 {
			spaceBefore = true
			i++
			continue
		}
		if cl&clEOL != 0 {
			// Multi-line message: pattern covers the first line only.
			if len(bytes.TrimSpace(src[i:])) != 0 {
				dst = append(dst, Token{Type: TailAny, SpaceBefore: spaceBefore})
			}
			break
		}

		// Hexadecimal FSM first: a MAC address contains colon-separated
		// pairs that the datetime FSM would otherwise claim as a clock
		// time ("12:34:56:78:9a:bc").
		if cl&clHex != 0 {
			if end, typ, ok := matchHex(src, i); ok {
				dst = append(dst, Token{Type: typ, Span: src[i:end], SpaceBefore: spaceBefore})
				i = end
				spaceBefore = false
				continue
			}
		}
		// Datetime FSM next: timestamps span spaces and colons that the
		// general FSM would split.
		if cl&(clTimeDigit|clTimeOther) != 0 {
			if end, ok := matchTime(src, i, s.Config.UnpaddedTimes); ok {
				dst = append(dst, Token{Type: Time, Span: src[i:end], SpaceBefore: spaceBefore})
				i = end
				spaceBefore = false
				continue
			}
		}
		// URLs run to the next whitespace even across hard delimiters
		// (query strings contain '=' and '&').
		if cl&clURL != 0 && hasURLScheme(src[i:]) {
			end := i
			for end < len(src) && class[src[end]]&(clSpace|clEOL) == 0 {
				end++
			}
			dst = append(dst, Token{Type: URL, Span: src[i:end], SpaceBefore: spaceBefore})
			i = end
			spaceBefore = false
			continue
		}
		// Hard delimiters are single-byte literal tokens.
		if cl&clHard != 0 {
			dst = append(dst, Token{Type: Literal, Span: src[i : i+1], SpaceBefore: spaceBefore})
			i++
			spaceBefore = false
			continue
		}

		// General FSM: read a word up to whitespace or a hard delimiter,
		// then classify it.
		end := i + 1
		for end < len(src) && class[src[end]]&clWordEnd == 0 {
			end++
		}
		dst = s.emitWord(dst, src[i:end], spaceBefore)
		i = end
		spaceBefore = false
	}
	return dst
}

// emitWord classifies one whitespace/delimiter-bounded word and appends the
// resulting token(s). Trailing sentence punctuation (.,:!?) is split off
// into its own literal tokens; an IPv4:port word is split into three
// tokens.
//
//seqrtg:noalloc
func (s *Scanner) emitWord(dst []Token, word []byte, spaceBefore bool) []Token {
	// Split trailing sentence punctuation: "failed:" -> "failed", ":".
	// The punctuation bytes stay where they are in the buffer; tail is
	// just the span holding them, so the split allocates nothing.
	cut := len(word)
	for cut > 1 {
		last := word[cut-1]
		if last != ':' && last != '.' && last != '!' && last != '?' {
			break
		}
		cut--
	}
	tail := word[cut:]
	word = word[:cut]

	dst = s.classifyAndAppend(dst, word, spaceBefore)
	for k := 0; k < len(tail); k++ {
		dst = append(dst, Token{Type: Literal, Span: tail[k : k+1]})
	}
	return dst
}

// classifyAndAppend types one word. It has no URL case: scanInto claims a
// scheme-led run before it reads a word, so a word never starts with one.
//
//seqrtg:noalloc
func (s *Scanner) classifyAndAppend(dst []Token, word []byte, spaceBefore bool) []Token {
	switch {
	case isIntegerWord(word):
		return append(dst, Token{Type: Integer, Span: word, SpaceBefore: spaceBefore})
	case isFloatWord(word):
		return append(dst, Token{Type: Float, Span: word, SpaceBefore: spaceBefore})
	case isIPv4Word(word):
		return append(dst, Token{Type: IPv4, Span: word, SpaceBefore: spaceBefore})
	default:
		// IPv4 with a port: "10.0.0.1:8080" -> ipv4, ":", integer.
		if ip, sep, port, ok := splitIPPort(word); ok {
			return append(dst,
				Token{Type: IPv4, Span: ip, SpaceBefore: spaceBefore},
				Token{Type: Literal, Span: sep},
				Token{Type: Integer, Span: port})
		}
		if s.Config.PathFSM && isPathWord(word) {
			return append(dst, Token{Type: Path, Span: word, SpaceBefore: spaceBefore})
		}
		return append(dst, Token{Type: Literal, Span: word, SpaceBefore: spaceBefore})
	}
}

func isIntegerWord(w []byte) bool {
	if len(w) == 0 {
		return false
	}
	i := 0
	if w[0] == '-' || w[0] == '+' {
		i++
	}
	if i == len(w) {
		return false
	}
	for ; i < len(w); i++ {
		if !isDigit(w[i]) {
			return false
		}
	}
	return true
}

func isFloatWord(w []byte) bool {
	i := 0
	if i < len(w) && (w[0] == '-' || w[0] == '+') {
		i++
	}
	digits, dots := 0, 0
	for ; i < len(w); i++ {
		switch {
		case isDigit(w[i]):
			digits++
		case w[i] == '.':
			dots++
			if dots > 1 {
				return false
			}
		case (w[i] == 'e' || w[i] == 'E') && digits > 0 && i+1 < len(w):
			// exponent: e[+-]?digits
			j := i + 1
			if w[j] == '+' || w[j] == '-' {
				j++
			}
			if j == len(w) {
				return false
			}
			for ; j < len(w); j++ {
				if !isDigit(w[j]) {
					return false
				}
			}
			return dots == 1 || digits > 0
		default:
			return false
		}
	}
	return digits > 0 && dots == 1
}

func isIPv4Word(w []byte) bool {
	return checkIPv4(w)
}

func checkIPv4(w []byte) bool {
	octets := 0
	i := 0
	for octets < 4 {
		v, n := 0, 0
		for i < len(w) && isDigit(w[i]) && n < 3 {
			v = v*10 + int(w[i]-'0')
			i++
			n++
		}
		if n == 0 || v > 255 {
			return false
		}
		octets++
		if octets == 4 {
			break
		}
		if i >= len(w) || w[i] != '.' {
			return false
		}
		i++
	}
	return i == len(w)
}

// splitIPPort splits "10.0.0.1:8080" into its three spans (all views of
// w, so the split allocates nothing).
func splitIPPort(w []byte) (ip, sep, port []byte, ok bool) {
	c := bytes.IndexByte(w, ':')
	if c <= 0 || c == len(w)-1 {
		return nil, nil, nil, false
	}
	if checkIPv4(w[:c]) && isIntegerWord(w[c+1:]) {
		return w[:c], w[c : c+1], w[c+1:], true
	}
	return nil, nil, nil, false
}

var urlSchemes = []string{"http://", "https://", "ftp://", "ftps://", "file://", "ssh://", "ldap://", "ldaps://", "nfs://", "smb://"}

// hasURLScheme reports whether w is one of urlSchemes followed by at
// least one more byte.
func hasURLScheme(w []byte) bool {
	for _, s := range urlSchemes {
		if len(w) > len(s) && w[0] == s[0] && string(w[:len(s)]) == s {
			return true
		}
	}
	return false
}

// isPathWord implements the optional path FSM: an absolute Unix path
// (leading '/') or an absolute Windows path (drive letter, colon,
// backslash), made of non-empty path-safe segments.
func isPathWord(w []byte) bool {
	if len(w) >= 4 && isAlpha(w[0]) && w[1] == ':' && w[2] == '\\' {
		return isPathBody(w[3:], '\\')
	}
	if len(w) >= 2 && w[0] == '/' {
		return isPathBody(w[1:], '/')
	}
	return false
}

func isPathBody(body []byte, sep byte) bool {
	segLen, segs := 0, 0
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c == sep:
			if segLen == 0 {
				return false // doubled separator or trailing garbage
			}
			segs++
			segLen = 0
		case isAlnum(c) || c == '.' || c == '_' || c == '-' || c == '+':
			segLen++
		default:
			return false
		}
	}
	if segLen > 0 {
		segs++
	}
	return segs >= 1
}

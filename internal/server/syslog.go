// Package server is the Sequence-RTG network ingestion daemon: syslog
// and HTTP listeners in front of a bounded record queue feeding the
// mining engine, plus a read API for the mined patterns.
//
// The paper deploys Sequence-RTG as a child process reading a JSON
// stream from syslog-ng on standard input (§IV). This package is the
// standalone-service front door the ROADMAP's north star asks for: logs
// arrive over the network (RFC 5424 / RFC 3164 syslog over UDP and TCP,
// or NDJSON over HTTP), flow through an explicitly bounded queue with a
// block-then-shed overload policy, and drain losslessly on shutdown.
package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ingest"
)

// Syslog parse errors. All parse failures are counted per listener as
// seqrtg_server_parse_errors_total; these sentinels make tests and
// callers precise about why.
var (
	errEmpty      = errors.New("server: syslog: empty message")
	errNoPRI      = errors.New("server: syslog: missing <PRI> header")
	errBadPRI     = errors.New("server: syslog: malformed <PRI> header")
	errBadHeader  = errors.New("server: syslog: truncated RFC 5424 header")
	errBadSD      = errors.New("server: syslog: unterminated structured data")
	errNoMessage  = errors.New("server: syslog: no MSG part")
	errBadFrame   = errors.New("server: syslog: malformed octet-counting frame")
	errConnClosed = errors.New("server: syslog: connection closed mid-frame")
)

// maxPRI is the largest valid PRIVAL (facility*8 + severity).
const maxPRI = 191

// ParseSyslog parses one syslog message, auto-detecting RFC 5424
// (version field after the PRI) and RFC 3164 (BSD format), and maps it
// onto the miner's record shape: APP-NAME (5424) or TAG (3164) becomes
// the service, MSG/CONTENT becomes the message. defaultService is used
// when the message carries no usable identity (nil APP-NAME, no tag).
//
// Parsing is deliberately lenient where RFC 3164 §4.3 demands it: a
// message with a valid PRI but an unparseable header is treated as
// all-CONTENT rather than rejected, because real device traffic is
// full of almost-3164. A missing or malformed PRI is an error — that
// is the one framing invariant every syslog sender honours.
func ParseSyslog(b []byte, defaultService string) (ingest.Record, error) {
	return parseSyslog(b, defaultService, nil)
}

// parseSyslog is ParseSyslog with the service name interned in names,
// the calling listener goroutine's table: a stream names the same
// services over and over, so a record then costs one string, its
// message, instead of two.
func parseSyslog(b []byte, defaultService string, names ingest.ServiceTable) (ingest.Record, error) {
	b = trimTrailingEOL(b)
	if len(b) == 0 {
		return ingest.Record{}, errEmpty
	}
	if b[0] != '<' {
		return ingest.Record{}, errNoPRI
	}
	i := 1
	pri := 0
	for i < len(b) && i < 4 && b[i] >= '0' && b[i] <= '9' {
		pri = pri*10 + int(b[i]-'0')
		i++
	}
	if i == 1 || i >= len(b) || b[i] != '>' || pri > maxPRI {
		return ingest.Record{}, errBadPRI
	}
	if i > 2 && b[1] == '0' {
		// Leading zeroes are forbidden ("<007>" is not a PRI).
		return ingest.Record{}, errBadPRI
	}
	rest := b[i+1:]

	// RFC 5424 is distinguished by VERSION: a digit run then a space.
	if v, after, ok := syslogVersion(rest); ok && v == 1 {
		return parse5424(after, defaultService, names)
	}
	return parse3164(rest, defaultService, names)
}

// syslogVersion reads the RFC 5424 VERSION field (NONZERO-DIGIT 0*2DIGIT
// followed by SP).
func syslogVersion(b []byte) (version int, rest []byte, ok bool) {
	i := 0
	for i < len(b) && i < 3 && b[i] >= '0' && b[i] <= '9' {
		version = version*10 + int(b[i]-'0')
		i++
	}
	if i == 0 || b[0] == '0' || i >= len(b) || b[i] != ' ' {
		return 0, nil, false
	}
	return version, b[i+1:], true
}

// parse5424 parses everything after "<PRI>VERSION SP":
// TIMESTAMP SP HOSTNAME SP APP-NAME SP PROCID SP MSGID SP SD [SP MSG].
func parse5424(b []byte, defaultService string, names ingest.ServiceTable) (ingest.Record, error) {
	var appName []byte
	for field := 0; field < 5; field++ {
		f, rest, err := nextField(b)
		if err != nil {
			return ingest.Record{}, err
		}
		if field == 2 {
			appName = f
		}
		b = rest
	}
	b, err := skipStructuredData(b)
	if err != nil {
		return ingest.Record{}, err
	}
	if len(b) == 0 {
		return ingest.Record{}, errNoMessage
	}
	if b[0] != ' ' {
		return ingest.Record{}, errBadSD
	}
	msg := b[1:]
	// RFC 5424 §6.4: a UTF-8 MSG should start with the BOM; strip it.
	if len(msg) >= 3 && msg[0] == 0xEF && msg[1] == 0xBB && msg[2] == 0xBF {
		msg = msg[3:]
	}
	if len(msg) == 0 {
		return ingest.Record{}, errNoMessage
	}
	service := defaultService
	if len(appName) > 0 && !(len(appName) == 1 && appName[0] == '-') {
		service = names.Intern(appName)
	}
	return ingest.Record{Service: service, Message: string(msg)}, nil
}

// nextField takes one space-delimited RFC 5424 header field.
func nextField(b []byte) (field, rest []byte, err error) {
	for i := 0; i < len(b); i++ {
		if b[i] == ' ' {
			if i == 0 {
				return nil, nil, errBadHeader
			}
			return b[:i], b[i+1:], nil
		}
	}
	return nil, nil, errBadHeader
}

// skipStructuredData consumes the SD part: NILVALUE or one or more
// [SD-ELEMENT]s, honouring the \] escape inside param values.
func skipStructuredData(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, errBadHeader
	}
	if b[0] == '-' {
		return b[1:], nil
	}
	for len(b) > 0 && b[0] == '[' {
		i := 1
		closed := false
		for i < len(b) {
			switch b[i] {
			case '\\':
				i += 2
				continue
			case ']':
				closed = true
			}
			if closed {
				break
			}
			i++
		}
		if !closed {
			return nil, errBadSD
		}
		b = b[i+1:]
	}
	return b, nil
}

// parse3164 parses the BSD syslog format after "<PRI>":
// TIMESTAMP SP HOSTNAME SP TAG[pid]: CONTENT. When the header does not
// parse, RFC 3164 §4.3.3 says to treat everything after the PRI as
// CONTENT, which is what the fallback does (with defaultService).
func parse3164(b []byte, defaultService string, names ingest.ServiceTable) (ingest.Record, error) {
	if content, ok := strip3164Header(b); ok {
		if tag, msg, ok := splitTag(content); ok {
			if len(msg) == 0 {
				return ingest.Record{}, errNoMessage
			}
			return ingest.Record{Service: names.Intern(tag), Message: string(msg)}, nil
		}
		if len(content) == 0 {
			return ingest.Record{}, errNoMessage
		}
		return ingest.Record{Service: defaultService, Message: string(content)}, nil
	}
	if len(b) == 0 {
		return ingest.Record{}, errNoMessage
	}
	return ingest.Record{Service: defaultService, Message: string(b)}, nil
}

// strip3164Header validates and removes "Mmm dd hh:mm:ss HOSTNAME ",
// returning the remaining TAG+CONTENT.
func strip3164Header(b []byte) (content []byte, ok bool) {
	// The timestamp is exactly 15 bytes ("Jan _2 15:04:05") plus a space.
	if len(b) < 16 || b[15] != ' ' {
		return nil, false
	}
	if !valid3164Stamp(b[:15]) {
		return nil, false
	}
	rest := b[16:]
	sp := -1
	for i := 0; i < len(rest); i++ {
		if rest[i] == ' ' {
			sp = i
			break
		}
	}
	if sp <= 0 {
		return nil, false
	}
	return rest[sp+1:], true
}

// stampMonths are the RFC 3164 month abbreviations, in "MmmXMmmY..."
// form for an allocation-free three-byte comparison.
const stampMonths = "JanFebMarAprMayJunJulAugSepOctNovDec"

// valid3164Stamp checks a 15-byte "Mmm _d hh:mm:ss" timestamp without
// time.Parse, whose string conversion was the ingest path's last
// per-datagram allocation. It is calendar-lenient — any day 1..31 is
// accepted for any month — which only widens the already-lenient 3164
// header detection (a bogus "Feb 30" header falls through to the
// all-CONTENT fallback either way on real traffic).
func valid3164Stamp(b []byte) bool {
	month := false
	for i := 0; i < len(stampMonths); i += 3 {
		if b[0] == stampMonths[i] && b[1] == stampMonths[i+1] && b[2] == stampMonths[i+2] {
			month = true
			break
		}
	}
	if !month || b[3] != ' ' {
		return false
	}
	// Day: space- or zero-padded ("Jan  2", "Jan 02", "Jan 12"), 1..31.
	if !isDigit(b[5]) {
		return false
	}
	day := int(b[5] - '0')
	switch {
	case b[4] == ' ':
	case isDigit(b[4]):
		day += 10 * int(b[4]-'0')
	default:
		return false
	}
	if day < 1 || day > 31 {
		return false
	}
	if b[6] != ' ' || b[9] != ':' || b[12] != ':' {
		return false
	}
	hh, ok1 := twoDigits(b[7], b[8])
	mm, ok2 := twoDigits(b[10], b[11])
	ss, ok3 := twoDigits(b[13], b[14])
	return ok1 && ok2 && ok3 && hh < 24 && mm < 60 && ss < 60
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func twoDigits(a, b byte) (int, bool) {
	if !isDigit(a) || !isDigit(b) {
		return 0, false
	}
	return 10*int(a-'0') + int(b-'0'), true
}

// splitTag splits "tag: msg" or "tag[pid]: msg" into tag and message.
// The BSD convention bounds the tag at 32 alphanumeric characters; we
// also allow the '-', '_', '.' and '/' that real daemons use. Content
// that does not open with a recognisable tag (terminated by ':' or
// '[pid]:') is reported as tagless rather than guessed at.
func splitTag(b []byte) (tag, msg []byte, ok bool) {
	i := 0
	for i < len(b) && i < 32 && isTagByte(b[i]) {
		i++
	}
	if i == 0 || i >= len(b) {
		return nil, nil, false
	}
	tag = b[:i]
	rest := b[i:]
	if rest[0] == '[' {
		j := 1
		for j < len(rest) && rest[j] != ']' {
			j++
		}
		if j >= len(rest) || j == 1 {
			return nil, nil, false
		}
		rest = rest[j+1:]
		if len(rest) == 0 || rest[0] != ':' {
			return nil, nil, false
		}
	} else if rest[0] != ':' {
		return nil, nil, false
	}
	msg = rest[1:]
	if len(msg) > 0 && msg[0] == ' ' {
		msg = msg[1:]
	}
	return tag, msg, true
}

func isTagByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '-' || c == '_' || c == '.' || c == '/':
		return true
	}
	return false
}

func trimTrailingEOL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r' || b[len(b)-1] == 0) {
		b = b[:len(b)-1]
	}
	return b
}

// FormatRFC5424 renders a record as an RFC 5424 syslog line (facility
// local0, severity info), the inverse of ParseSyslog. cmd/loggen uses
// it to replay generated traffic against the listeners.
func FormatRFC5424(rec ingest.Record, host string, now time.Time) string {
	app := rec.Service
	if app == "" {
		app = "-"
	}
	return fmt.Sprintf("<134>1 %s %s %s - - - %s",
		now.UTC().Format(time.RFC3339), host, app, rec.Message)
}

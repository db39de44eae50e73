package ingest

import (
	"encoding/json"
	"unicode/utf8"
)

// decodeLine is the one decoder behind Reader.NextBatch, Decode and the
// HTTP NDJSON listener. The plain wire shape goes through decodePlain;
// every other line goes through encoding/json exactly as before, so what
// is accepted, rejected or rewritten is the standard library's decision
// by construction. fast reports which of the two decoded the line.
func decodeLine(lineNo int64, line []byte, defaultService string, services ServiceTable) (_ Record, fast bool, _ *BadRecordError) {
	if service, message, ok := decodePlain(line); ok {
		rec := Record{Service: defaultService, Message: string(message)}
		if len(service) > 0 {
			rec.Service = services.Intern(service)
		}
		return rec, true, nil
	}
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return Record{}, false, badRecord(lineNo, line, err)
	}
	if rec.Message == "" {
		return Record{}, false, badRecord(lineNo, line, nil)
	}
	if rec.Service == "" {
		rec.Service = defaultService
	}
	return rec, false, nil
}

// Decode decodes one JSON wire-format line ({"service":...,
// "message":...}) into a Record, applying defaultService when the line
// carries no service field. It is the single decoder shared by the
// stdin Reader and the network listeners; failures match ErrBadRecord.
func Decode(line []byte, defaultService string) (Record, error) {
	rec, _, bad := decodeLine(0, line, defaultService, nil)
	if bad != nil {
		return Record{}, bad
	}
	return rec, nil
}

// decodePlain recognises the shape syslog-ng and the generators emit: one
// object whose members are "service" and "message" (either order, each at
// most once, message present and non-empty) with plain string values,
// JSON whitespace allowed between tokens, nothing after the closing
// brace. It returns views into line. ok == false means only "not that
// shape": the line may still be valid JSON (escapes, other, repeated or
// differently cased keys, null) or invalid, which encoding/json decides.
func decodePlain(line []byte) (service, message []byte, ok bool) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return nil, nil, false
	}
	i++
	var haveService, haveMessage bool
	for {
		var key, val []byte
		if key, i, ok = plainString(line, skipSpace(line, i)); !ok {
			return nil, nil, false
		}
		if i = skipSpace(line, i); i == len(line) || line[i] != ':' {
			return nil, nil, false
		}
		if val, i, ok = plainString(line, skipSpace(line, i+1)); !ok {
			return nil, nil, false
		}
		switch {
		case string(key) == "service" && !haveService:
			service, haveService = val, true
		case string(key) == "message" && !haveMessage:
			message, haveMessage = val, true
		default:
			return nil, nil, false
		}
		if i = skipSpace(line, i); i == len(line) {
			return nil, nil, false
		}
		if line[i] == '}' {
			break
		}
		if line[i] != ',' {
			return nil, nil, false
		}
		i++
	}
	if skipSpace(line, i+1) != len(line) || len(message) == 0 {
		return nil, nil, false
	}
	return service, message, true
}

// skipSpace returns the offset of the first byte of b at or after i that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString reads a JSON string that starts at b[i] and whose content
// stands for itself: no escape, no control byte (encoding/json rejects
// those raw) and valid UTF-8 (it rewrites anything else to U+FFFD). It
// returns the content and the offset after the closing quote.
func plainString(b []byte, i int) (val []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	i++
	var high byte
	for j := i; j < len(b); j++ {
		c := b[j]
		if c == '"' {
			val = b[i:j]
			return val, j + 1, high < utf8.RuneSelf || utf8.Valid(val)
		}
		if c < ' ' || c == '\\' {
			break
		}
		high |= c
	}
	return nil, 0, false
}

// maxServices bounds a ServiceTable. A stream names a few hundred source
// systems; a corrupt or hostile one must not grow the table without end.
const maxServices = 4096

// ServiceTable interns service names so that a batch holds one string per
// service, not one per record. A nil table interns nothing. A table is
// not safe for concurrent use: each reader goroutine keeps its own.
type ServiceTable map[string]string

// Intern returns name as a string, the table's copy when it has one.
func (t ServiceTable) Intern(name []byte) string {
	if s, ok := t[string(name)]; ok {
		return s
	}
	s := string(name)
	if t != nil {
		if len(t) >= maxServices {
			clear(t)
		}
		t[s] = s
	}
	return s
}

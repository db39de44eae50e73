package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/testenv"
)

// referenceDecode is the decoder as it was before the fast path: pure
// encoding/json. It is the oracle decodeLine must agree with on every
// input, the way internal/token/reference is the scanner's.
func referenceDecode(line []byte, defaultService string) (Record, bool) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil || rec.Message == "" {
		return Record{}, false
	}
	if rec.Service == "" {
		rec.Service = defaultService
	}
	return rec, true
}

// assertDecodeParity decodes line with and without a service table and
// fails unless both agree with the reference: the same Record, or a
// failure that matches ErrBadRecord on a line the reference rejects too.
func assertDecodeParity(t *testing.T, line []byte, defaultService string) {
	t.Helper()
	want, ok := referenceDecode(line, defaultService)
	for _, services := range []ServiceTable{nil, {}} {
		got, _, bad := decodeLine(1, line, defaultService, services)
		switch {
		case bad != nil && !errors.Is(bad, ErrBadRecord):
			t.Fatalf("decodeLine(%q) failed with %v, which does not match ErrBadRecord", line, bad)
		case ok != (bad == nil):
			t.Fatalf("decodeLine(%q) error = %v, reference accepts = %t", line, bad, ok)
		case got != want:
			t.Fatalf("decodeLine(%q, %q) = %+v, reference %+v", line, defaultService, got, want)
		}
	}
}

// decodeCases are lines around the edge of the plain wire shape, with the
// decoder each must reach. The ones marked fallback are where a
// hand-written decoder and encoding/json would most easily disagree.
var decodeCases = []struct {
	line string
	fast bool
}{
	{`{"service":"sshd","message":"Failed password for root from 10.0.0.1 port 22 ssh2"}`, true},
	{`{"message":"swapped key order","service":"cron"}`, true},
	{`{"message":"no service"}`, true},
	{`{"service":"","message":"empty service takes the default"}`, true},
	{" \t{ \"service\" : \"a\" ,\r\n \"message\" : \"spaced\" } \n", true},
	{`{"service":"é","message":"valid UTF-8 ✓ and DEL ` + "\x7f" + `"}`, true},
	{`{"service":"a","message":"tab escape\there"}`, false},
	{`{"service":"a","message":"\u0041 escaped letter"}`, false},
	{`{"service":"a","message":"nul \u0000 escape"}`, false},
	{`{"service":"a","message":"lone surrogate \ud800 escape"}`, false},
	{`{"service":"a","message":"quote \" escape"}`, false},
	{"{\"service\":\"a\",\"message\":\"invalid UTF-8 \xff\xfe here\"}", false},
	{"{\"service\":\"a\",\"message\":\"surrogate bytes \xed\xa0\x80\"}", false},
	{"{\"service\":\"a\",\"message\":\"raw control \x01 byte\"}", false},
	{"{\"service\":\"a\",\"message\":\"raw\ttab\"}", false},
	{`{"service":"a","message":"first","message":"second"}`, false},
	{`{"service":"a","service":"b","message":"duplicate service"}`, false},
	{`{"service":"a","Message":"case-variant key"}`, false},
	{`{"SERVICE":"a","message":"case-variant service"}`, false},
	{`{"service":"a","message":"extra key","host":"h"}`, false},
	{`{"message":null}`, false},
	{`{"service":null,"message":"null service"}`, false},
	{`{"service":7,"message":"number service"}`, false},
	{`{"service":"a","message":""}`, false},
	{`{"service":"a"}`, false},
	{`{"service":"a","message":"trailing garbage"} x`, false},
	{`{"service":"a","message":"trailing object"}{}`, false},
	{`{"service":"a","message":"trailing comma",}`, false},
	{`{"service":"a","message":"unterminated`, false},
	{`{"service":"a" "message":"missing comma"}`, false},
	{`{"service","message":"missing colon"}`, false},
	{`{}`, false},
	{`null`, false},
	{`["message","array"]`, false},
	{"\xef\xbb\xbf" + `{"message":"byte order mark"}`, false},
	{``, false},
}

func TestDecodePathsAgree(t *testing.T) {
	for _, c := range decodeCases {
		if _, _, ok := decodePlain([]byte(c.line)); ok != c.fast {
			t.Errorf("decodePlain(%q) ok = %t, want %t", c.line, ok, c.fast)
		}
		assertDecodeParity(t, []byte(c.line), "fallback")
	}
}

// FuzzDecodeParity extends the differential check to arbitrary bytes and
// default-service strings: the fast path and the pure-encoding/json
// reference return the same Record or both fail with ErrBadRecord.
func FuzzDecodeParity(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.line), "unknown")
	}
	f.Fuzz(func(t *testing.T, line []byte, defaultService string) {
		assertDecodeParity(t, line, defaultService)
	})
}

// TestDecodeAllocs is the committed allocation budget of the decode
// stage: a plain line costs its message string and nothing else once the
// reader has seen the service.
func TestDecodeAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	lines := make([][]byte, 64)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf(`{"service":"svc%03d","message":"connection %d closed by 10.0.0.%d"}`, i%8, i, i))
	}
	services := ServiceTable{}
	decodeAll := func() {
		for _, l := range lines {
			if _, fast, bad := decodeLine(1, l, "unknown", services); bad != nil || !fast {
				t.Fatalf("decodeLine(%q): fast = %t, err = %v", l, fast, bad)
			}
		}
	}
	decodeAll() // warm the service table
	if avg := testing.AllocsPerRun(100, decodeAll) / float64(len(lines)); avg > 1 {
		t.Fatalf("fast path allocates %.2f per record, want <= 1", avg)
	}
}

func TestServiceTableIsBounded(t *testing.T) {
	services := ServiceTable{}
	for i := 0; i < 3*maxServices; i++ {
		name := fmt.Sprintf("svc%d", i)
		if got := services.Intern([]byte(name)); got != name {
			t.Fatalf("intern(%q) = %q", name, got)
		}
		if len(services) > maxServices {
			t.Fatalf("table holds %d names after %d distinct ones, bound is %d", len(services), i+1, maxServices)
		}
	}
}

package server

import (
	"errors"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ingest"
	"repro/internal/testenv"
)

func TestParseSyslogRFC5424(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		service string
		message string
	}{
		{
			name:    "nil structured data",
			in:      `<34>1 2026-08-05T22:14:15.003Z mymachine.example.com su - ID47 - 'su root' failed for lonvick on /dev/pts/8`,
			service: "su",
			message: "'su root' failed for lonvick on /dev/pts/8",
		},
		{
			name:    "structured data element",
			in:      `<165>1 2026-08-05T22:14:15.003Z mymachine evntslog - ID47 [exampleSDID@32473 iut="3" eventSource="Application"] An application event log entry`,
			service: "evntslog",
			message: "An application event log entry",
		},
		{
			name:    "multiple SD elements",
			in:      `<165>1 2026-08-05T22:14:15.003Z mymachine evntslog - ID47 [a x="1"][b y="2"] msg body`,
			service: "evntslog",
			message: "msg body",
		},
		{
			name:    "escaped bracket in SD param",
			in:      `<165>1 2026-08-05T22:14:15.003Z host app - - [sd p="tricky \] value"] real message`,
			service: "app",
			message: "real message",
		},
		{
			name:    "nil app-name falls back to default",
			in:      `<13>1 2026-08-05T22:14:15Z host - - - - hello world`,
			service: "fallback",
			message: "hello world",
		},
		{
			name:    "BOM before MSG is stripped",
			in:      "<13>1 2026-08-05T22:14:15Z host app - - - \xEF\xBB\xBFbom message",
			service: "app",
			message: "bom message",
		},
		{
			name:    "trailing newline trimmed",
			in:      "<13>1 2026-08-05T22:14:15Z host app - - - line msg\n",
			service: "app",
			message: "line msg",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := ParseSyslog([]byte(tc.in), "fallback")
			if err != nil {
				t.Fatalf("ParseSyslog: %v", err)
			}
			if rec.Service != tc.service {
				t.Errorf("service = %q, want %q", rec.Service, tc.service)
			}
			if rec.Message != tc.message {
				t.Errorf("message = %q, want %q", rec.Message, tc.message)
			}
		})
	}
}

func TestParseSyslogRFC3164(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		service string
		message string
	}{
		{
			name:    "classic with tag",
			in:      `<34>Oct 11 22:14:15 mymachine su: 'su root' failed for lonvick`,
			service: "su",
			message: "'su root' failed for lonvick",
		},
		{
			name:    "tag with pid",
			in:      `<13>Feb  5 17:32:18 host sshd[4721]: Accepted publickey for root`,
			service: "sshd",
			message: "Accepted publickey for root",
		},
		{
			name:    "dotted tag",
			in:      `<13>Feb  5 17:32:18 host app.worker-1: job done`,
			service: "app.worker-1",
			message: "job done",
		},
		{
			name:    "tagless content keeps default service",
			in:      `<13>Feb  5 17:32:18 host something without a colon tag`,
			service: "fallback",
			message: "something without a colon tag",
		},
		{
			name:    "unparseable header falls back to all-content",
			in:      `<13>busted header but still a message`,
			service: "fallback",
			message: "busted header but still a message",
		},
		{
			name:    "no space after tag colon",
			in:      `<13>Feb  5 17:32:18 host tag:msg`,
			service: "tag",
			message: "msg",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := ParseSyslog([]byte(tc.in), "fallback")
			if err != nil {
				t.Fatalf("ParseSyslog: %v", err)
			}
			if rec.Service != tc.service {
				t.Errorf("service = %q, want %q", rec.Service, tc.service)
			}
			if rec.Message != tc.message {
				t.Errorf("message = %q, want %q", rec.Message, tc.message)
			}
		})
	}
}

func TestParseSyslogErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"empty", "", errEmpty},
		{"only newline", "\n", errEmpty},
		{"no PRI bracket", "no pri here", errNoPRI},
		{"unterminated PRI", "<13 no close", errBadPRI},
		{"PRI too large", "<192>1 2026-08-05T22:14:15Z h a - - - m", errBadPRI},
		{"PRI four digits", "<1000>msg", errBadPRI},
		{"PRI leading zero", "<013>msg", errBadPRI},
		{"PRI empty", "<>msg", errBadPRI},
		{"5424 truncated header", "<13>1 2026-08-05T22:14:15Z host", errBadHeader},
		{"5424 unterminated SD", `<13>1 2026-08-05T22:14:15Z h app - - [open sd`, errBadSD},
		{"5424 no MSG", "<13>1 2026-08-05T22:14:15Z h app - - -", errNoMessage},
		{"3164 tag with empty msg", "<13>Feb  5 17:32:18 host tag:", errNoMessage},
		{"bare PRI", "<13>", errNoMessage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSyslog([]byte(tc.in), "d")
			if !errors.Is(err, tc.want) {
				t.Fatalf("ParseSyslog(%q) err = %v, want %v", tc.in, err, tc.want)
			}
		})
	}
}

func TestFormatRFC5424RoundTrip(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	line := FormatRFC5424(recordOf("auth", "login failed for user admin"), "host1", now)
	rec, err := ParseSyslog([]byte(line), "fallback")
	if err != nil {
		t.Fatalf("ParseSyslog(%q): %v", line, err)
	}
	if rec.Service != "auth" || rec.Message != "login failed for user admin" {
		t.Fatalf("round trip = %+v", rec)
	}
	if !strings.HasPrefix(line, "<134>1 2026-08-05T12:00:00Z host1 auth ") {
		t.Fatalf("unexpected header: %q", line)
	}
}

// TestParseSyslogInternsService checks that a listener's service table
// hands out one string per service: a repeated APP-NAME or TAG costs no
// allocation, only the message does.
func TestParseSyslogInternsService(t *testing.T) {
	names := ingest.ServiceTable{}
	frames := [][]byte{
		[]byte("<34>1 2026-03-01T10:00:00Z host sshd 42 - - Accepted password for root"),
		[]byte("<34>Mar  1 10:00:00 host cron[7]: job started"),
	}
	for _, f := range frames {
		first, err := parseSyslog(f, "fallback", names)
		if err != nil {
			t.Fatal(err)
		}
		again, err := parseSyslog(f, "fallback", names)
		if err != nil {
			t.Fatal(err)
		}
		if first != again || unsafe.StringData(first.Service) != unsafe.StringData(again.Service) {
			t.Fatalf("%q: service %q not interned", f, first.Service)
		}
		if !testenv.Race {
			if n := testing.AllocsPerRun(100, func() { _, _ = parseSyslog(f, "fallback", names) }); n != 1 {
				t.Fatalf("%q: %.1f allocations per parse, want 1 (the message)", f, n)
			}
		}
	}
}

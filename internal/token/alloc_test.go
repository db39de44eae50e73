package token_test

import (
	"testing"

	"repro/internal/testenv"
	"repro/internal/token"
	"repro/internal/workload"
)

// TestScanZeroAllocs is the committed allocation budget of the scan
// stage: tokenizing and enriching a message with a pooled scanner must
// not allocate at all once the scanner's buffers are warm. This is the
// core guarantee of the byte-slice token redesign; bench/ prices the
// same stage as token.scan_ns_per_msg.
func TestScanZeroAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	gen := workload.New(workload.Config{Seed: 1})
	msgs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = []byte(gen.Next().Message)
	}
	msgs = append(msgs,
		[]byte("Jun  2 03:04:05 host sshd[42]: Accepted publickey for git"),
		[]byte("uid=0 gid=100 path=/var/log/messages mail alice@example.com"),
	)
	s := token.NewScanner(token.Config{})
	defer s.Release()
	for _, m := range msgs { // warm the pooled token buffer
		token.Enrich(s.ScanBytes(m))
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, m := range msgs {
			token.Enrich(s.ScanBytes(m))
		}
	})
	if avg != 0 {
		t.Fatalf("scan allocates: %.2f allocs per %d-message run, want 0", avg, len(msgs))
	}
}

// TestScanStringZeroSteadyAllocs pins the string entry point's budget:
// Scan copies the message into the scanner's reused source buffer, so
// steady state (buffer already grown) is allocation-free too.
func TestScanStringZeroSteadyAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	msg := "Failed password for root from 10.0.0.1 port 22 ssh2"
	s := token.NewScanner(token.Config{})
	defer s.Release()
	token.Enrich(s.Scan(msg))
	avg := testing.AllocsPerRun(100, func() {
		token.Enrich(s.Scan(msg))
	})
	if avg != 0 {
		t.Fatalf("Scan allocates %.2f per message in steady state, want 0", avg)
	}
}

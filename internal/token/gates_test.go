package token

import (
	"strings"
	"testing"
)

// rendering says how renderLayout fills a layout pattern in.
type rendering struct {
	month, weekday string // for 'M' and 'W'
	pad            byte   // for 'e'
	// digits, when positive, cuts digit groups down to that many digits:
	// the groups UnpaddedTimes lets run short (three wide at most), or
	// with cutWide every group.
	digits  int
	cutWide bool
}

func renderLayout(pattern string, r rendering) string {
	var b strings.Builder
	digit := 0
	for k := 0; k < len(pattern); k++ {
		switch pattern[k] {
		case 'd':
			width := 1
			for k+1 < len(pattern) && pattern[k+1] == 'd' {
				width++
				k++
			}
			if r.digits > 0 && r.digits < width && (width <= 3 || r.cutWide) {
				width = r.digits
			}
			for ; width > 0; width-- {
				digit = digit%9 + 1
				b.WriteByte('0' + byte(digit))
			}
		case 'M':
			b.WriteString(r.month)
		case 'W':
			b.WriteString(r.weekday)
		case 'e':
			b.WriteByte(r.pad)
		default:
			b.WriteByte(pattern[k])
		}
	}
	return b.String()
}

// TimeGateCases lists, for every entry of timeLayouts, the strings on
// either side of each decision the class table and the layout index make:
// the exact layout, each proper prefix, fractions and zones (allowed by
// the layout or not), a trailing letter or digit, short digit groups, and
// the layout glued after a letter, a digit and a word.
func TimeGateCases() []string {
	var out []string
	for _, l := range timeLayouts {
		r := rendering{month: "Jun", weekday: "Sun", pad: ' '}
		exact := renderLayout(l.pattern, r)
		// The names in each other's place, and a digit for the pad.
		out = append(out, exact, renderLayout(l.pattern, rendering{month: "Sat", weekday: "May", pad: '7'}))
		for k := 1; k < len(exact); k++ {
			out = append(out, exact[:k])
		}
		for _, suffix := range []string{".123", ",5", ".", "Z", " +0200", "-07:00", ".250 +0100", "a", "7", ": done"} {
			out = append(out, exact+suffix)
		}
		for r.digits = 1; r.digits <= 3; r.digits++ {
			r.cutWide = false
			out = append(out, renderLayout(l.pattern, r))
			r.cutWide = true
			out = append(out, renderLayout(l.pattern, r))
		}
		out = append(out, "a"+exact, "7"+exact, "at "+exact+" done", "["+exact+"]")
	}
	return out
}

// TestGatesAdmitEveryLayout fails when a layout or scheme, present or
// added later, is gated out: its first byte must carry the class bit that
// lets scanInto try it, and the index must still find the whole match.
func TestGatesAdmitEveryLayout(t *testing.T) {
	for _, l := range timeLayouts {
		var msgs []string
		for _, month := range monthNames {
			msgs = append(msgs, renderLayout(l.pattern, rendering{month: month, weekday: "Sun", pad: ' '}))
		}
		for _, weekday := range weekdayNames {
			msgs = append(msgs, renderLayout(l.pattern, rendering{month: "Jun", weekday: weekday, pad: '3'}))
		}
		for _, msg := range msgs {
			if class[msg[0]]&(clTimeDigit|clTimeOther) == 0 {
				t.Errorf("layout %q: first byte of %q carries no time class bit", l.pattern, msg)
			}
			if end, ok := matchTime([]byte(msg), 0, false); !ok || end != len(msg) {
				t.Errorf("layout %q: matchTime(%q) = %d, %t; want %d, true", l.pattern, msg, end, ok, len(msg))
			}
		}
	}
	for _, scheme := range urlSchemes {
		if class[scheme[0]]&clURL == 0 {
			t.Errorf("scheme %q: first byte carries no URL class bit", scheme)
		}
		got := scanOne(t, scheme+"host/x")
		if len(got) != 1 || got[0].Type != URL {
			t.Errorf("Scan(%q): want a single URL token, got %v", scheme+"host/x", got)
		}
	}
	for i := 0; i < len(hardDelims); i++ {
		if class[hardDelims[i]]&clHard == 0 {
			t.Errorf("hard delimiter %q carries no class bit", hardDelims[i])
		}
	}
}

package token

// The datetime finite state machine.
//
// Timestamps in system logs come in dozens of layouts, frequently spanning
// what whitespace splitting would consider several fields ("Jun 14
// 15:16:01"). The FSM therefore runs on the raw byte stream before any
// field splitting, trying a table of composable layouts and committing to
// the longest match.
//
// A layout is a compact pattern string interpreted byte by byte:
//
//	d   exactly one decimal digit
//	M   a three-letter English month name (Jan, Feb, ...)
//	W   a three-letter English weekday name (Mon, Tue, ...)
//	e   a space or a digit (syslog pads single-digit days: "Jun  2")
//	any other byte matches itself literally
//
// Two option flags extend a layout: frac allows a trailing fractional
// seconds part introduced by '.' or ',', and tz allows a trailing numeric
// time zone (" +0200", " -0700", or "Z").
//
// Faithfulness note: like the original Sequence FSM, every time part must
// be fully padded — "0:7:20" does NOT match "dd:dd:dd". The paper reports
// this exact limitation on the HealthApp dataset (§IV, Limitations) and the
// accuracy harness depends on reproducing it.

import "strings"

type timeLayout struct {
	pattern string
	frac    bool // allow .123 / ,123 fractional seconds
	tz      bool // allow " +0200" / " -0700" / "Z"
}

// timeLayouts lists every recognised layout; the order carries no meaning.
// matchTime commits to the longest match among the layouts that timeIndex
// and timeOther (both derived from this table) admit at a position.
var timeLayouts = []timeLayout{
	// RFC3339 and ISO-8601 variants.
	{pattern: "dddd-dd-ddTdd:dd:dd", frac: true, tz: true},
	{pattern: "dddd-dd-dd dd:dd:dd", frac: true, tz: true},
	{pattern: "dddd/dd/dd dd:dd:dd", frac: true},
	{pattern: "dddd.dd.dd dd:dd:dd", frac: true},
	// BGL: 2005-06-03-15.42.50.363779
	{pattern: "dddd-dd-dd-dd.dd.dd", frac: true},
	// US style: 12/31/2006 23:59:59
	{pattern: "dd/dd/dddd dd:dd:dd", frac: true},
	// Spark: 17/06/09 20:10:40
	{pattern: "dd/dd/dd dd:dd:dd"},
	// Apache error log inner part: Sun Dec 04 04:47:44 2005
	{pattern: "W M dd dd:dd:dd dddd"},
	// Common Log Format: 10/Oct/2000:13:55:36
	{pattern: "dd/M/dddd:dd:dd:dd", tz: true},
	{pattern: "dd/M/dddd dd:dd:dd"},
	// Syslog: Jun 14 15:16:01 / Jun  2 15:16:01
	{pattern: "M ee dd:dd:dd", frac: true},
	// HealthApp (when zero padded): 20171224-00:07:20:444
	{pattern: "dddddddd-dd:dd:dd:ddd"},
	{pattern: "dddddddd-dd:dd:dd"},
	// HDFS: 081109 203518
	{pattern: "dddddd dddddd"},
	// Android: 03-17 16:13:38.811
	{pattern: "dd-dd dd:dd:dd", frac: true},
	// Proxifier: 10.30 16:49:06
	{pattern: "dd.dd dd:dd:dd", frac: true},
	// Dates without times.
	{pattern: "dddd-dd-dd"},
	{pattern: "dddd/dd/dd"},
	{pattern: "dddd.dd.dd"},
	{pattern: "dd/dd/dddd"},
	// Bare clock time: 15:04:05(.999)
	{pattern: "dd:dd:dd", frac: true},
}

var monthNames = [...]string{
	"Jan", "Feb", "Mar", "Apr", "May", "Jun",
	"Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
}

var weekdayNames = [...]string{
	"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun",
}

// timeBucket holds the layouts that share a first digit group's width and
// the literal byte after it, each cut down to what follows that byte.
type timeBucket struct {
	sep   byte
	tails []timeLayout
}

// timeIndex[w] buckets the layouts that open with a group of w digits and
// then a literal byte; timeOther holds every other layout whole. Only an
// indexed layout whose width and separator agree with the input's leading
// digit run can match there, so matchTime interprets no other.
var timeIndex, timeOther = func() (index [][]timeBucket, other []timeLayout) {
layouts:
	for _, l := range timeLayouts {
		w := 0
		for w < len(l.pattern) && l.pattern[w] == 'd' {
			w++
		}
		if w == 0 || w == len(l.pattern) || strings.IndexByte("eMW", l.pattern[w]) >= 0 {
			other = append(other, l)
			continue
		}
		for len(index) <= w {
			index = append(index, nil)
		}
		tail := timeLayout{pattern: l.pattern[w+1:], frac: l.frac, tz: l.tz}
		for k := range index[w] {
			if b := &index[w][k]; b.sep == l.pattern[w] {
				b.tails = append(b.tails, tail)
				continue layouts
			}
		}
		index[w] = append(index[w], timeBucket{sep: l.pattern[w], tails: []timeLayout{tail}})
	}
	return index, other
}()

// firstBytes returns the bytes the layout pattern element p accepts.
func firstBytes(p byte) []byte {
	switch p {
	case 'd':
		return []byte("0123456789")
	case 'e':
		return []byte(" 0123456789")
	case 'M':
		return initials(monthNames[:])
	case 'W':
		return initials(weekdayNames[:])
	}
	return []byte{p}
}

func initials(names []string) []byte {
	var b []byte
	for _, n := range names {
		b = append(b, n[0])
	}
	return b
}

// matchTime attempts to match a timestamp starting at s[i]. It returns the
// end offset (exclusive) of the longest layout match, or ok == false when
// no layout matches. The byte following the match must not be alphanumeric
// so that the FSM never splits a longer word or number.
//
// With unpadded set, two- and three-digit layout groups accept fewer
// digits than their width ("0:7:20" matches "dd:dd:dd") — the §VI
// future-work fix for HealthApp-style timestamps, off by default to stay
// faithful to the published FSM.
func matchTime(s []byte, i int, unpadded bool) (end int, ok bool) {
	if i >= len(s) {
		return 0, false
	}
	best, cl := -1, class[s[i]]
	if cl&clTimeDigit != 0 {
		// Measure the leading digit run and the byte after it once. A
		// first group of width w takes exactly w digits, or, unpadded and
		// w <= 3, fewer; either way the separator must follow the run.
		n := 1
		for n < len(timeIndex) && i+n < len(s) && isDigit(s[i+n]) {
			n++
		}
		if n < len(timeIndex) && i+n < len(s) {
			widest := n
			if unpadded && n < 3 {
				widest = 3
			}
			for w := n; w <= widest && w < len(timeIndex); w++ {
				for _, b := range timeIndex[w] {
					if b.sep != s[i+n] {
						continue
					}
					for _, l := range b.tails {
						if e, m := matchLayout(s, i+n+1, l, unpadded); m && e > best {
							best = e
						}
					}
				}
			}
		}
	}
	if cl&clTimeOther != 0 {
		for _, l := range timeOther {
			if e, m := matchLayout(s, i, l, unpadded); m && e > best {
				best = e
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	if best < len(s) && isAlnum(s[best]) {
		return 0, false
	}
	return best, true
}

func matchLayout(s []byte, i int, l timeLayout, unpadded bool) (end int, ok bool) {
	j := i
	for k := 0; k < len(l.pattern); k++ {
		if j >= len(s) {
			return 0, false
		}
		switch l.pattern[k] {
		case 'd':
			// A run of 'd' is one digit group: exact width normally;
			// short two- and three-digit groups allowed when unpadded.
			width := 1
			for k+1 < len(l.pattern) && l.pattern[k+1] == 'd' {
				width++
				k++
			}
			got := 0
			for j < len(s) && got < width && isDigit(s[j]) {
				j++
				got++
			}
			if got == width {
				break
			}
			if !unpadded || got == 0 || width > 3 {
				return 0, false
			}
		case 'e':
			if s[j] != ' ' && !isDigit(s[j]) {
				return 0, false
			}
			j++
		case 'M':
			if !matchName(s, j, monthNames[:]) {
				return 0, false
			}
			j += 3
		case 'W':
			if !matchName(s, j, weekdayNames[:]) {
				return 0, false
			}
			j += 3
		default:
			if s[j] != l.pattern[k] {
				return 0, false
			}
			j++
		}
	}
	if l.frac {
		j = matchFraction(s, j)
	}
	if l.tz {
		j = matchTimeZone(s, j)
	}
	return j, true
}

func matchName(s []byte, i int, names []string) bool {
	if i+3 > len(s) {
		return false
	}
	w := s[i : i+3]
	for _, n := range names {
		if string(w) == n {
			return true
		}
	}
	return false
}

// matchFraction consumes an optional fractional seconds part: a '.' or ','
// followed by one to nine digits. It returns the new offset (j unchanged
// when there is no fraction).
func matchFraction(s []byte, j int) int {
	if j >= len(s) || (s[j] != '.' && s[j] != ',') {
		return j
	}
	k := j + 1
	for k < len(s) && k-j <= 9 && isDigit(s[k]) {
		k++
	}
	if k == j+1 {
		return j // bare separator, not a fraction
	}
	return k
}

// matchTimeZone consumes an optional trailing zone: "Z", " +hhmm", " -hhmm",
// "+hh:mm" or "-hh:mm" (with or without the leading space).
func matchTimeZone(s []byte, j int) int {
	if j < len(s) && s[j] == 'Z' {
		return j + 1
	}
	k := j
	if k < len(s) && s[k] == ' ' {
		k++
	}
	if k >= len(s) || (s[k] != '+' && s[k] != '-') {
		return j
	}
	k++
	digits := 0
	for k < len(s) && (isDigit(s[k]) || s[k] == ':') {
		if s[k] != ':' {
			digits++
		}
		k++
	}
	if digits != 4 {
		return j
	}
	return k
}

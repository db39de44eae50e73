package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/ingest"
	"repro/internal/server"
)

// profile holds the dials of one workload's traffic.
type profile struct {
	// repeatShare is the fraction of records drawn verbatim from the pool
	// of the last poolSize fresh records: 0 means every variable value is
	// fresh, so only natural repeats hit the verbatim caches.
	repeatShare float64
	// piiShare is the fraction of fresh records that carry seeded PII
	// literals (an e-mail address, a card number and a token= secret).
	piiShare float64
}

const (
	poolSize = 4096
	// sampleEvery picks the deterministic 1-in-997 sample of sent records
	// that the Parse check replays against the final database.
	sampleEvery = 997
	piiLiterals = 16
)

// sampled is one record of the Parse-check sample with its position in
// the stream, so a run that stopped early checks only what it sent.
type sampled struct {
	index int
	rec   ingest.Record
}

// world is a population of services with Zipf-skewed volumes, each
// owning event templates with Zipf-skewed frequencies: the model of
// internal/workload (241 services as in the paper's Fig 5, skew 1.1,
// the same template shapes). The bench owns a copy because the world
// must stay the same while the seed varies. A message's cost follows its
// template's length and a handful of templates carry most of the
// traffic, so worlds drawn per seed differ by 10% in messages per
// second, which would drown the regressions the bounds are set to catch.
// The seed picks every variable value and the order of arrival.
type world struct {
	services []service
	cum      []float64 // cumulative service weights
}

type service struct {
	name   string
	events [][]segment
	cum    []float64 // cumulative event weights
}

// segment is one piece of an event template: fixed text, or a variable
// of one kind (i int, f float, a IPv4, h hex, u user, p path, w unit).
type segment struct {
	literal string
	kind    byte
}

const (
	worldServices = 241
	worldEvents   = 12 // mean templates per service
	worldSkew     = 1.1
	// streamWorld is the world of the stream and daemon workloads;
	// adhoc_cold gives every file a world of its own.
	streamWorld = 1
)

var (
	verbs = []string{"accepted", "rejected", "started", "stopped", "opened", "closed", "created", "deleted", "flushed",
		"scheduled", "received", "sent", "mounted", "resized", "migrated", "throttled", "retried", "expired"}
	nouns = []string{"connection", "session", "job", "volume", "request", "transfer", "snapshot", "lease", "packet",
		"transaction", "replica", "index", "shard", "container", "task", "query", "tunnel", "checkpoint"}
	tails = []string{"successfully", "with warnings", "after retry", "in background", "for maintenance", "by scheduler",
		"on demand", "at capacity"}
	labels = []string{"count", "load", "peer", "id", "user", "file", "unit"}
)

func newWorld(id int64) *world {
	rng := rand.New(rand.NewSource(id))
	w := &world{}
	total := 0.0
	for s := 0; s < worldServices; s++ {
		svc := service{name: fmt.Sprintf("svc%03d", s)}
		sum := 0.0
		for e, n := 0, 1+rng.Intn(2*worldEvents); e < n; e++ {
			segs := []segment{{literal: verbs[rng.Intn(len(verbs))]}, {literal: nouns[rng.Intn(len(nouns))]},
				{literal: fmt.Sprintf("e%03d", rng.Intn(1000))}}
			for i, extra := 0, 1+rng.Intn(5); i < extra; i++ {
				if rng.Intn(3) == 0 {
					segs = append(segs, segment{literal: tails[rng.Intn(len(tails))]})
					continue
				}
				segs = append(segs, segment{literal: labels[rng.Intn(len(labels))]}, segment{kind: "ifahupw"[rng.Intn(7)]})
			}
			svc.events = append(svc.events, segs)
			sum += 1 / math.Pow(float64(e+1), worldSkew)
			svc.cum = append(svc.cum, sum)
		}
		w.services = append(w.services, svc)
		total += 1 / math.Pow(float64(s+1), worldSkew)
		w.cum = append(w.cum, total)
	}
	return w
}

// appendPadded appends v in decimal, zero-padded to width digits.
func appendPadded(dst []byte, v, width int) []byte {
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(v), 10)
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// record draws one record: a service and one of its events by weight,
// every variable freshly drawn from rng.
func (w *world) record(rng *rand.Rand, buf []byte) (ingest.Record, []byte) {
	svc := &w.services[sort.SearchFloat64s(w.cum, rng.Float64()*w.cum[len(w.cum)-1])]
	b := buf[:0]
	for i, seg := range svc.events[sort.SearchFloat64s(svc.cum, rng.Float64()*svc.cum[len(svc.cum)-1])] {
		if i > 0 {
			b = append(b, ' ')
		}
		switch seg.kind {
		case 0:
			b = append(b, seg.literal...)
		case 'i':
			b = strconv.AppendInt(b, int64(rng.Intn(100000)), 10)
		case 'f':
			b = strconv.AppendFloat(b, rng.Float64()*1000, 'f', 2, 64)
		case 'a':
			for j, part := range [4]int{10 + rng.Intn(200), rng.Intn(256), rng.Intn(256), 1 + rng.Intn(254)} {
				if j > 0 {
					b = append(b, '.')
				}
				b = strconv.AppendInt(b, int64(part), 10)
			}
		case 'h':
			const hexdigits = "0123456789abcdef"
			for v, j := rng.Uint64(), 0; j < 16; v, j = v>>4, j+1 {
				b = append(b, hexdigits[v&15])
			}
		case 'u':
			b = appendPadded(append(b, "user"...), rng.Intn(4000), 4)
		case 'p':
			b = appendPadded(append(b, "/data/d"...), rng.Intn(40), 2)
			b = append(appendPadded(append(b, "/f"...), rng.Intn(100000), 5), ".dat"...)
		case 'w':
			b = strconv.AppendInt(append(b, "unit-"...), int64(rng.Intn(64)), 10)
		}
	}
	return ingest.Record{Service: svc.name, Message: string(b)}, b
}

// corpus generates one workload's input stream. Everything it emits is a
// function of the world and the seed alone.
type corpus struct {
	world   *world
	rng     *rand.Rand
	msg     []byte
	prof    profile
	pool    []ingest.Record
	poolAt  int
	emitted int
	samples []sampled
	// emails, cards and secrets are the seeded PII literals; the leak
	// check scans the data directory for every one of them.
	emails, cards, secrets []string
	sum                    hash.Hash
	buf                    []byte
}

func newCorpus(worldID, seed int64, prof profile) *corpus {
	c := &corpus{world: newWorld(worldID), rng: rand.New(rand.NewSource(seed)), prof: prof, sum: sha256.New()}
	if prof.piiShare > 0 {
		for i := 0; i < piiLiterals; i++ {
			c.emails = append(c.emails, fmt.Sprintf("u%08x@corp%02d.example.com", c.rng.Uint32(), i))
			c.cards = append(c.cards, luhnCard(c.rng))
			c.secrets = append(c.secrets, fmt.Sprintf("s3cr%016x", c.rng.Uint64()))
		}
	}
	return c
}

// luhnCard returns a 16-digit number with a valid Luhn check digit, the
// shape the card detector masks.
func luhnCard(rng *rand.Rand) string {
	d := make([]byte, 16)
	d[0] = 4
	for i := 1; i < 15; i++ {
		d[i] = byte(rng.Intn(10))
	}
	sum := 0
	for i := 0; i < 15; i++ {
		v := int(d[i])
		if i%2 == 0 {
			if v *= 2; v > 9 {
				v -= 9
			}
		}
		sum += v
	}
	d[15] = byte((10 - sum%10) % 10)
	for i := range d {
		d[i] += '0'
	}
	return string(d)
}

func (c *corpus) piiValues() []string {
	out := append([]string(nil), c.emails...)
	out = append(out, c.cards...)
	return append(out, c.secrets...)
}

func (c *corpus) next() ingest.Record {
	var rec ingest.Record
	if len(c.pool) > 0 && c.rng.Float64() < c.prof.repeatShare {
		rec = c.pool[c.rng.Intn(len(c.pool))]
	} else {
		rec, c.msg = c.world.record(c.rng, c.msg)
		if c.prof.piiShare > 0 && c.rng.Float64() < c.prof.piiShare {
			i := c.rng.Intn(piiLiterals)
			rec.Message += " contact " + c.emails[i] + " card " + c.cards[i] + " token=" + c.secrets[i]
		}
		if c.prof.repeatShare > 0 {
			if len(c.pool) < poolSize {
				c.pool = append(c.pool, rec)
			} else {
				c.pool[c.poolAt] = rec
				c.poolAt = (c.poolAt + 1) % poolSize
			}
		}
	}
	if c.emitted%sampleEvery == 0 {
		c.samples = append(c.samples, sampled{c.emitted, rec})
	}
	c.emitted++
	return rec
}

// sha returns the SHA-256 of every byte rendered so far.
func (c *corpus) sha() string { return hex.EncodeToString(c.sum.Sum(nil)) }

// plainJSON reports whether s can sit between JSON quotes unescaped.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b == '"' || b == '\\' || b >= 0x7f {
			return false
		}
	}
	return true
}

// appendJSONL renders rec in the ingester's wire format. Generated
// records are plain ASCII, so the common case skips encoding/json.
func appendJSONL(dst []byte, rec ingest.Record) []byte {
	if !plainJSON(rec.Service) || !plainJSON(rec.Message) {
		return append(dst, ingest.Marshal(rec)...)
	}
	dst = append(dst, `{"service":"`...)
	dst = append(dst, rec.Service...)
	dst = append(dst, `","message":"`...)
	dst = append(dst, rec.Message...)
	return append(dst, "\"}\n"...)
}

// syslogStamp is the fixed timestamp of every rendered syslog frame, so
// the frames depend on the seed alone.
var syslogStamp = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// appendFrame renders rec as an RFC 5424 message in RFC 6587 octet
// counting ("LEN SP MSG").
func appendFrame(dst []byte, rec ingest.Record) []byte {
	msg := server.FormatRFC5424(rec, "bench", syslogStamp)
	dst = strconv.AppendInt(dst, int64(len(msg)), 10)
	dst = append(dst, ' ')
	return append(dst, msg...)
}

// writeJSONL writes n records to path in segments of segRecords records
// and returns the byte offset at which each segment ends. A segment is
// one analysis batch, so the stream reader can stop on a batch boundary.
func (c *corpus) writeJSONL(path string, n, segRecords int) (segEnds []int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	var off int64
	for i := 0; i < n; i++ {
		c.buf = appendJSONL(c.buf[:0], c.next())
		c.sum.Write(c.buf)
		if _, err := w.Write(c.buf); err != nil {
			return nil, err
		}
		off += int64(len(c.buf))
		if (i+1)%segRecords == 0 || i == n-1 {
			segEnds = append(segEnds, off)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return segEnds, f.Close()
}

// render appends n records to one byte slice with the given renderer and
// returns it with the offsets that cut it into groups of groupSize
// records (the last group may be short): group k is
// data[cuts[k]:cuts[k+1]].
func (c *corpus) render(n, groupSize int, appendRec func([]byte, ingest.Record) []byte) (data []byte, cuts []int) {
	cuts = []int{0}
	for i := 0; i < n; i++ {
		at := len(data)
		data = appendRec(data, c.next())
		c.sum.Write(data[at:])
		if (i+1)%groupSize == 0 || i == n-1 {
			cuts = append(cuts, len(data))
		}
	}
	return data, cuts
}

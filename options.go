package sequence

import "time"

// Option configures an RTG instance at Open time. Options are applied in
// order, so later options win; start from WithConfig when migrating code
// that built a Config struct by hand.
type Option func(*Config)

// WithConfig applies a whole Config at once — the mechanical migration
// bridge from the old Open(dir, cfg) signature:
//
//	rtg, err := sequence.Open(dir, cfg)                 // old
//	rtg, err := sequence.Open(dir, sequence.WithConfig(cfg)) // new
//
// Any Option applied after WithConfig overrides the corresponding field.
func WithConfig(c Config) Option {
	return func(dst *Config) { *dst = c }
}

// WithMinGroupMessages sets the minimum number of messages required
// before a variable is created (default 3).
func WithMinGroupMessages(n int) Option {
	return func(c *Config) { c.MinGroupMessages = n }
}

// WithSaveThreshold drops patterns matched fewer than n times in the
// batch that discovered them.
func WithSaveThreshold(n int64) Option {
	return func(c *Config) { c.SaveThreshold = n }
}

// WithMaxTrieNodes bounds analysis memory per service; past the bound
// the trie is harvested early (0 = unbounded).
func WithMaxTrieNodes(n int) Option {
	return func(c *Config) { c.MaxTrieNodes = n }
}

// WithConcurrency analyses n services in parallel (default 1, the
// paper's sequential behaviour).
func WithConcurrency(n int) Option {
	return func(c *Config) { c.Concurrency = n }
}

// WithStoreShards splits the store's and parser's state into n
// service-hash shards, each with its own lock and journal file (0, the
// default, selects GOMAXPROCS). More shards means less contention
// between concurrent service workers; the on-disk database remains
// readable under any shard count.
func WithStoreShards(n int) Option {
	return func(c *Config) { c.StoreShards = n }
}

// WithKeepAllVariables disables constant folding, reverting to the
// original Sequence behaviour of keeping every typed position a
// variable.
func WithKeepAllVariables() Option {
	return func(c *Config) { c.KeepAllVariables = true }
}

// WithUnpaddedTimes lets the datetime FSM accept single-digit time parts
// (the HealthApp fix).
func WithUnpaddedTimes() Option {
	return func(c *Config) { c.UnpaddedTimes = true }
}

// WithPathFSM enables the fourth finite state machine: filesystem paths
// become typed variables instead of literals.
func WithPathFSM() Option {
	return func(c *Config) { c.PathFSM = true }
}

// WithSplitSemiConstants expands variables that only ever took between
// two and max values into one pattern per value.
func WithSplitSemiConstants(max int) Option {
	return func(c *Config) { c.SplitSemiConstants = max }
}

// WithArchive enables the pattern-aware compressed log archive: every
// message matched on the parse path is recorded as (timestamp, pattern
// ID, variable values) in time-bucketed, columnar, DEFLATE-compressed
// block files under <dir>/archive (kept in memory for an in-memory
// instance), queryable through RTG.Archive and the server's
// /api/v1/query endpoint. Off by default.
func WithArchive() Option {
	return func(c *Config) { c.Archive = true }
}

// WithArchiveRetention ages out archive block files on every archive
// flush: a block is deleted once its whole time bucket lies more than d
// before now, counted as seqrtg_archive_retired_blocks_total. Zero (the
// default) keeps blocks forever. Only meaningful together with
// WithArchive.
func WithArchiveRetention(d time.Duration) Option {
	return func(c *Config) { c.ArchiveRetention = d }
}

// WithMasking enables the PII masking stage: every message is rewritten
// by the configured detectors and rules before the analyzer, the
// parser's exact cache, the journal, and the archive see it, so raw
// sensitive values never reach a durable artifact. The zero MaskConfig
// enables all built-in detectors (emails, IPs, secrets, Luhn-valid card
// numbers) with no user rules:
//
//	rtg, err := sequence.Open(dir, sequence.WithMasking(sequence.MaskConfig{}))
func WithMasking(mc MaskConfig) Option {
	return func(c *Config) { c.Masking = &mc }
}

// WithMetrics makes the instance report into m instead of a private
// Metrics. Sharing one Metrics across several instances (for example
// service shards that will later be merged) aggregates their
// instrumentation into one exposition.
func WithMetrics(m *Metrics) Option {
	return func(c *Config) { c.Metrics = m }
}

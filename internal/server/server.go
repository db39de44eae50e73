package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/ingest"
	"repro/internal/mask"
	"repro/internal/obs"
	"repro/internal/patterns"
)

// Miner is what the daemon needs from the mining engine. *sequence.RTG
// satisfies it.
type Miner interface {
	// AnalyzeByServiceContext processes one batch with the Sequence-RTG
	// workflow.
	AnalyzeByServiceContext(ctx context.Context, records []ingest.Record, now time.Time) (core.BatchResult, error)
	// Flush makes the batch's mutations durable.
	Flush() error
	// Patterns snapshots the stored patterns, for the query API.
	Patterns() []*patterns.Pattern
	// Export writes the stored patterns in the named format.
	Export(w io.Writer, f export.Format, opts export.Options) error
}

// Options configures a Server. The zero value is not serveable: at
// least one listener address must be set.
type Options struct {
	// SyslogUDP is the UDP syslog listen address (e.g. ":514",
	// "127.0.0.1:0"); empty disables the listener.
	SyslogUDP string
	// SyslogTCP is the TCP syslog listen address; empty disables.
	// Both RFC 6587 framings (octet counting and LF separation) are
	// accepted, auto-detected per frame.
	SyslogTCP string
	// HTTP is the HTTP API listen address; empty disables. Endpoints:
	// POST /api/v1/ingest (NDJSON records), GET /api/v1/patterns,
	// GET /api/v1/export, GET /api/v1/query (archive), GET /healthz.
	HTTP string
	// QueueDepth bounds the record queue between the listeners and the
	// engine (ingest.DefaultQueueDepth when zero).
	QueueDepth int
	// BatchSize is the analysis batch size (ingest.DefaultBatchSize
	// when zero).
	BatchSize int
	// Linger bounds how long a non-empty batch waits to fill before it
	// is analysed anyway (ingest.DefaultLinger when zero).
	Linger time.Duration
	// PushTimeout is how long a listener blocks on a full queue before
	// shedding the record (ingest.DefaultBlockTimeout when zero).
	PushTimeout time.Duration
	// DrainTimeout bounds the graceful shutdown: once Run's context is
	// cancelled, accepted records have this long to flow through
	// analysis before the server gives up (default 30s).
	DrainTimeout time.Duration
	// MaxMessageBytes bounds one syslog frame or NDJSON line (1 MiB
	// when zero), matching ingest.Options.MaxLineBytes.
	MaxMessageBytes int
	// DefaultService is used for records without a usable source
	// identity ("unknown" when empty).
	DefaultService string
	// Metrics receives the server's instrumentation; pass the miner's
	// registry so everything lands in one exposition. A fresh private
	// instance is used when nil.
	Metrics *obs.Metrics
	// Report, when non-nil, is called after every analysed batch.
	Report func(core.BatchResult)
	// OnError, when non-nil, receives non-fatal errors (listener
	// hiccups, retryable persistence failures) that the daemon survives.
	OnError func(error)
	// Archive, when non-nil, backs the GET /api/v1/query endpoint with
	// the miner's compressed log archive. When nil the endpoint reports
	// that archiving is disabled.
	Archive *archive.Archive
	// Mask, when non-nil, is the PII masking stage, applied by every
	// listener (UDP, TCP, HTTP) at enqueue time so raw values never sit
	// in the record queue or survive into the drain. Pass the miner's
	// masker; masking is idempotent, so the engine running the same
	// stage again is harmless.
	Mask *mask.Masker
}

func (o Options) withDefaults() Options {
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.MaxMessageBytes <= 0 {
		o.MaxMessageBytes = 1 << 20
	}
	if o.DefaultService == "" {
		o.DefaultService = "unknown"
	}
	if o.Metrics == nil {
		o.Metrics = obs.New()
	}
	return o
}

// ListenerError wraps a network listener failure the way
// core.PersistError wraps persistence failures: the daemon keeps
// serving its other listeners and surfaces the failure instead of
// crashing, and Retryable tells the operator whether the listener may
// recover.
type ListenerError struct {
	// Listener names the failing listener: "udp", "tcp" or "http".
	Listener string
	// Err is the underlying network error.
	Err error
}

// Error implements error.
func (e *ListenerError) Error() string {
	return fmt.Sprintf("server: %s listener: %v", e.Listener, e.Err)
}

// Unwrap lets errors.Is/As see the network error.
func (e *ListenerError) Unwrap() error { return e.Err }

// Retryable reports whether the listener may recover: true for
// transient I/O errors, false once the listening socket itself has
// been closed.
func (e *ListenerError) Retryable() bool { return !errors.Is(e.Err, net.ErrClosed) }

// Server is the network ingestion daemon: listeners feeding a bounded
// queue feeding the miner, plus the pattern query API.
type Server struct {
	opts  Options
	miner Miner
	q     *ingest.Queue
	m     *obs.Metrics

	udp     net.PacketConn
	tcpLn   net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // guarded by connMu

	lwg      sync.WaitGroup // listener goroutines
	stopOnce sync.Once
	drainCtx atomic.Pointer[context.Context]

	errMu sync.Mutex
	errs  []error // guarded by errMu
}

// New binds the configured listeners (so ephemeral ports are resolved
// and Addr accessors work before Run) and returns the daemon. The
// listeners do not accept traffic until Run.
func New(m Miner, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.SyslogUDP == "" && opts.SyslogTCP == "" && opts.HTTP == "" {
		return nil, errors.New("server: no listener configured (set SyslogUDP, SyslogTCP or HTTP)")
	}
	s := &Server{
		opts:  opts,
		miner: m,
		q: ingest.NewQueue(ingest.QueueOptions{
			Depth:        opts.QueueDepth,
			BatchSize:    opts.BatchSize,
			Linger:       opts.Linger,
			BlockTimeout: opts.PushTimeout,
			Metrics:      opts.Metrics,
		}),
		m:     opts.Metrics,
		conns: make(map[net.Conn]struct{}),
	}
	var err error
	if opts.SyslogUDP != "" {
		if s.udp, err = net.ListenPacket("udp", opts.SyslogUDP); err != nil {
			s.closeListeners()
			return nil, fmt.Errorf("server: listen udp syslog: %w", err)
		}
		if uc, ok := s.udp.(*net.UDPConn); ok {
			// Datagrams that arrive while a previous one is being parsed
			// queue in the kernel; the default buffer holds only a few
			// hundred messages, so bursts drop silently. Best effort —
			// the OS caps it at net.core.rmem_max.
			_ = uc.SetReadBuffer(8 << 20)
		}
	}
	if opts.SyslogTCP != "" {
		if s.tcpLn, err = net.Listen("tcp", opts.SyslogTCP); err != nil {
			s.closeListeners()
			return nil, fmt.Errorf("server: listen tcp syslog: %w", err)
		}
	}
	if opts.HTTP != "" {
		if s.httpLn, err = net.Listen("tcp", opts.HTTP); err != nil {
			s.closeListeners()
			return nil, fmt.Errorf("server: listen http: %w", err)
		}
		s.httpSrv = &http.Server{Handler: s.httpMux(), ReadHeaderTimeout: 10 * time.Second}
	}
	return s, nil
}

// SyslogUDPAddr returns the bound UDP syslog address ("" when disabled).
func (s *Server) SyslogUDPAddr() string {
	if s.udp == nil {
		return ""
	}
	return s.udp.LocalAddr().String()
}

// SyslogTCPAddr returns the bound TCP syslog address ("" when disabled).
func (s *Server) SyslogTCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// HTTPAddr returns the bound HTTP API address ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Run serves until ctx is cancelled, then drains gracefully: listeners
// stop accepting, every record already accepted into the queue flows
// through AnalyzeByServiceContext and is flushed to the store (bounded
// by DrainTimeout), and Run returns. The returned error joins the
// drain outcome with any non-fatal listener errors collected while
// serving; a clean drain after a cancelled context returns nil.
func (s *Server) Run(ctx context.Context) error {
	if s.udp != nil {
		s.lwg.Add(1)
		go s.serveUDP()
	}
	if s.tcpLn != nil {
		s.lwg.Add(1)
		go s.serveTCP()
	}
	if s.httpSrv != nil {
		s.lwg.Add(1)
		go s.serveHTTP()
	}

	// The stop coordinator turns context cancellation into the drain
	// sequence; doneServing releases it when the analysis loop ends
	// first (fatal persistence failure).
	doneServing := make(chan struct{})
	defer close(doneServing)
	go func() {
		select {
		case <-ctx.Done():
			s.stop()
		case <-doneServing:
		}
	}()

	err := s.runAnalysis()
	s.stop() // no-op on the graceful path; stops listeners on the fatal path
	return errors.Join(err, s.takeErrs())
}

// stop executes the drain sequence exactly once: stop accepting (close
// the listening sockets and active connections, finish in-flight HTTP
// requests), wait for the listener goroutines — whose accepted records
// are all in the queue by then — and close the queue, which lets the
// analysis loop drain to io.EOF.
func (s *Server) stop() {
	s.stopOnce.Do(func() {
		dctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		_ = cancel // released with the process; the deadline must outlive stop()
		s.drainCtx.Store(&dctx)
		s.closeListeners()
		if s.httpSrv != nil {
			// Shutdown returns once in-flight requests (and their queue
			// pushes) have completed.
			sctx, scancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
			if err := s.httpSrv.Shutdown(sctx); err != nil {
				s.reportErr(&ListenerError{Listener: "http", Err: err})
			}
			scancel()
		}
		s.lwg.Wait()
		s.q.Close()
	})
}

func (s *Server) closeListeners() {
	if s.udp != nil {
		_ = s.udp.Close()
	}
	if s.tcpLn != nil {
		_ = s.tcpLn.Close()
	}
	if s.httpLn != nil && s.httpSrv == nil {
		_ = s.httpLn.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
}

// runAnalysis is the consumer side: queue batches through the miner,
// flush after every batch, and observe the ingest-to-persist latency.
func (s *Server) runAnalysis() error {
	for {
		recs, oldest, err := s.q.NextBatchMeta()
		if err == io.EOF {
			return nil
		}
		actx := context.Background()
		if p := s.drainCtx.Load(); p != nil {
			actx = *p
		}
		res, aerr := s.miner.AnalyzeByServiceContext(actx, recs, time.Now())
		ferr := s.miner.Flush()
		if aerr == nil && ferr == nil && !oldest.IsZero() {
			s.m.ServerIngestLatency.ObserveSince(oldest)
		}
		if s.opts.Report != nil {
			s.opts.Report(res)
		}
		if err := s.batchErr(aerr, ferr, len(recs)); err != nil {
			return err
		}
	}
}

// batchErr decides whether a batch failure ends the daemon. Retryable
// persistence errors are degraded batches, not crashes — the paper's
// production stance — while a closed store or a blown drain deadline is
// fatal.
func (s *Server) batchErr(aerr, ferr error, n int) error {
	if aerr != nil {
		var pe *core.PersistError
		switch {
		case errors.As(aerr, &pe) && pe.Retryable():
			s.reportErr(fmt.Errorf("server: degraded batch (analysis): %w", aerr))
		case errors.Is(aerr, context.DeadlineExceeded) || errors.Is(aerr, context.Canceled):
			return fmt.Errorf("server: drain deadline exceeded with records queued (batch of %d interrupted): %w", n, aerr)
		default:
			return fmt.Errorf("server: analysis: %w", aerr)
		}
	}
	if ferr != nil {
		var pe *core.PersistError
		if errors.As(ferr, &pe) && !pe.Retryable() {
			return fmt.Errorf("server: flush: %w", ferr)
		}
		s.reportErr(fmt.Errorf("server: degraded batch (flush): %w", ferr))
	}
	return nil
}

// maskRecord runs the masking stage over one record's message before it
// is enqueued; a nil masker is a no-op. Masking here (not only in the
// engine) keeps raw values out of the in-memory queue and out of any
// batch still draining at shutdown.
func (s *Server) maskRecord(rec *ingest.Record) {
	if s.opts.Mask == nil {
		return
	}
	if out, changed := s.opts.Mask.Mask(rec.Message); changed {
		rec.Message = out
	}
}

// ingestSyslog parses one datagram/frame, masks it, and pushes it,
// maintaining the per-listener counters. names is the calling
// goroutine's service-name table. It reports whether the record was
// accepted.
func (s *Server) ingestSyslog(listener int, data []byte, names ingest.ServiceTable) bool {
	rec, err := parseSyslog(data, s.opts.DefaultService, names)
	if err != nil {
		s.m.ServerParseErrors.Inc(listener)
		return false
	}
	s.maskRecord(&rec)
	if err := s.q.Push(rec); err != nil {
		s.m.ServerShed.Inc(listener)
		return false
	}
	s.m.ServerAccepted.Inc(listener)
	return true
}

// serveUDP receives syslog datagrams, one message per datagram.
func (s *Server) serveUDP() {
	defer s.lwg.Done()
	buf := make([]byte, 64*1024) // max UDP payload
	names := ingest.ServiceTable{}
	var consecutive int
	for {
		n, _, err := s.udp.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			consecutive++
			s.reportErr(&ListenerError{Listener: "udp", Err: err})
			if consecutive >= 5 {
				return // the socket is wedged; the daemon keeps serving its other listeners
			}
			time.Sleep(time.Duration(consecutive) * 50 * time.Millisecond)
			continue
		}
		consecutive = 0
		if n == 0 {
			continue
		}
		s.ingestSyslog(obs.ListenerUDP, buf[:n], names)
	}
}

// serveTCP accepts syslog connections.
func (s *Server) serveTCP() {
	defer s.lwg.Done()
	var consecutive int
	for {
		c, err := s.tcpLn.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			consecutive++
			s.reportErr(&ListenerError{Listener: "tcp", Err: err})
			if consecutive >= 5 {
				return
			}
			time.Sleep(time.Duration(consecutive) * 50 * time.Millisecond)
			continue
		}
		consecutive = 0
		if !s.trackConn(c) {
			_ = c.Close() // already draining
			continue
		}
		s.lwg.Add(1)
		go s.serveTCPConn(c)
	}
}

// trackConn registers an active connection for shutdown; it refuses
// (returns false) once the server is draining.
func (s *Server) trackConn(c net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.conns == nil {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrackConn(c net.Conn) {
	s.connMu.Lock()
	if s.conns != nil {
		delete(s.conns, c)
	}
	s.connMu.Unlock()
}

func (s *Server) serveTCPConn(c net.Conn) {
	defer s.lwg.Done()
	defer s.untrackConn(c)
	defer c.Close()
	fr := newFrameReader(c, s.opts.MaxMessageBytes)
	names := ingest.ServiceTable{}
	for {
		frame, tooLong, err := fr.next()
		if tooLong {
			s.m.ServerParseErrors.Inc(obs.ListenerTCP)
		}
		if err != nil {
			switch {
			case err == io.EOF, errors.Is(err, net.ErrClosed):
			case err == errConnClosed, err == errBadFrame:
				s.m.ServerParseErrors.Inc(obs.ListenerTCP)
			default:
				s.reportErr(&ListenerError{Listener: "tcp", Err: err})
			}
			return
		}
		if tooLong || len(frame) == 0 {
			continue
		}
		s.ingestSyslog(obs.ListenerTCP, frame, names)
	}
}

func (s *Server) serveHTTP() {
	defer s.lwg.Done()
	if err := s.httpSrv.Serve(s.httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
		s.reportErr(&ListenerError{Listener: "http", Err: err})
	}
}

func (s *Server) reportErr(err error) {
	if s.opts.OnError != nil {
		s.opts.OnError(err)
		return
	}
	s.errMu.Lock()
	if len(s.errs) < 64 { // bound memory on a flapping listener
		s.errs = append(s.errs, err)
	}
	s.errMu.Unlock()
}

func (s *Server) takeErrs() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	err := errors.Join(s.errs...)
	s.errs = nil
	return err
}

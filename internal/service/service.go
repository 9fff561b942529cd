// Package service turns the repair library into a serving subsystem: a
// bounded job queue feeding a worker pool sized to GOMAXPROCS, a
// content-addressed cache of finished results keyed by a canonical hash of
// the parsed model plus options, per-job deadlines with real cancellation
// (threaded through the repair algorithms' fixpoints), and an HTTP/JSON API
// (see Handler) exposing submission, status, health and metrics.
//
// Identical jobs are deduplicated at two levels: a finished result is served
// straight from the cache, and a submission identical to an in-flight
// synthesis coalesces onto it — one synthesis runs, both jobs get the
// result, and the follower is accounted as a cache hit. Each synthesis
// compiles its own BDD manager, so workers share no symbolic state and the
// pool scales without locking the BDD layer.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
)

// Config tunes a Service. Zero values select sensible defaults.
type Config struct {
	// Workers is the worker-pool size; default GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the pending-job queue; default 64.
	QueueDepth int
	// CacheEntries bounds the result cache; default 256.
	CacheEntries int
	// DefaultTimeout applies to jobs that do not set Spec.TimeoutMS;
	// default 5m. The clock starts at submission.
	DefaultTimeout time.Duration
	// MaxLogLines bounds each job's retained progress log; default 64.
	MaxLogLines int
	// SpillDir, when non-empty, arms the persistent result-cache spill: every
	// finished report is written through to a content-key-named, checksummed
	// file in this directory, and cache lookups that miss in memory fall back
	// to it — so results survive restarts and LRU eviction. Entries are
	// validated on load; corruption is deleted and recomputed.
	SpillDir string
	// SpillEntries bounds the spill store's entry count (oldest evicted
	// first); default 4096. Only meaningful with SpillDir.
	SpillEntries int
	// QuotaRate arms per-client admission quotas: each client accrues this
	// many submissions per second (token bucket, burst QuotaBurst), and a
	// submission beyond it fails with ErrQuotaExceeded. 0 disables quotas.
	// Cache hits are always served — a token pays for synthesis capacity,
	// not for reads.
	QuotaRate float64
	// QuotaBurst is the token-bucket burst size; default 8.
	QuotaBurst int
	// ShedWatermark arms load shedding: once the general queue lane holds at
	// least this many jobs, submissions the cost model predicts expensive
	// fail with ErrOverloaded while cheap ones are still admitted. 0
	// disables shedding (only a hard-full queue rejects).
	ShedWatermark int
	// FastWorkers reserves that many pool workers for the fast lane (jobs
	// predicted under FastLaneNS), capped at Workers-1. All other workers
	// prefer the fast lane but drain both. Default 0: no reservation.
	FastWorkers int
	// FastLaneNS is the predicted serial wall time (nanoseconds) under which
	// a job routes to the fast lane; default 100ms. Negative disables the
	// fast lane entirely.
	FastLaneNS int64
	// CostBudgetScale, when positive, arms cost-based early termination: a
	// job predicted expensive (over FastLaneNS) that does not set its own
	// node_budget runs under NodeBudget = scale × predicted peak nodes, so a
	// synthesis whose BDDs blow far past the prediction fails fast with a
	// typed budget error instead of burning a worker until its wall-clock
	// deadline. 0 disables.
	CostBudgetScale int64
	// Logf, when non-nil, receives service-level log lines. It must be safe
	// for concurrent use (workers log concurrently).
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxLogLines <= 0 {
		c.MaxLogLines = 64
	}
	if c.SpillEntries <= 0 {
		c.SpillEntries = 4096
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 8
	}
	if c.FastLaneNS == 0 {
		c.FastLaneNS = int64(100 * time.Millisecond)
	}
	if c.FastWorkers > c.Workers-1 {
		c.FastWorkers = c.Workers - 1
	}
	if c.FastWorkers < 0 {
		c.FastWorkers = 0
	}
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// errClientCancel marks client-requested cancellation (vs deadline).
var errClientCancel = errors.New("cancelled by client")

// Service is the repair daemon's engine.
type Service struct {
	cfg     Config
	root    context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	q       *queue
	cache   *Cache
	quotas  *quotas
	waits   waitRing
	metrics metrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // job ids in submission order, for retention pruning
	inflight map[string]*job // content key -> the job whose synthesis is pending
	seq      uint64
	closed   bool
}

// pruneLocked evicts the oldest terminal job records once the registry
// outgrows its retention bound, so a long-lived daemon's memory stays flat.
// Live (queued/running) jobs are never evicted. Callers hold s.mu.
func (s *Service) pruneLocked() {
	max := s.cfg.QueueDepth * 16
	if len(s.jobs) <= max {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal && len(s.jobs) > max {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// New builds and starts a Service: the worker pool is live on return. An
// unusable spill directory degrades the cache to memory-only (logged), so a
// daemon never fails to boot over a cache tier.
func New(cfg Config) *Service {
	cfg.fill()
	root, stop := context.WithCancel(context.Background())
	cache, err := NewSpillCache(cfg.CacheEntries, cfg.SpillDir, cfg.SpillEntries)
	if err != nil {
		cache = NewCache(cfg.CacheEntries)
	}
	s := &Service{
		cfg:      cfg,
		root:     root,
		stop:     stop,
		q:        newQueue(cfg.QueueDepth),
		cache:    cache,
		metrics:  newMetrics(),
		quotas:   newQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
	}
	if err != nil {
		s.logf("service: spill disabled: %v", err)
	}
	for i := 0; i < cfg.Workers; i++ {
		fastOnly := i < cfg.FastWorkers
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker(fastOnly)
		}()
	}
	return s
}

// Close stops accepting submissions, cancels every live job, and waits for
// the workers to drain.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	for _, j := range live {
		j.cancel(errors.New("service shutting down"))
	}
	s.stop()
	s.wg.Wait()
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// costBudgetFloor is the minimum admission-imposed node budget: it protects
// jobs the model mispredicts as tiny from being killed by a budget far below
// anything a real synthesis needs.
const costBudgetFloor = 1 << 17

// Submit validates and registers a job with no client attribution (quotas
// do not apply). The returned view reflects the job's state at return: done
// (cache hit), or queued. ErrQueueFull, ErrOverloaded, ErrQuotaExceeded and
// ErrClosed are sentinel errors; anything else is a bad spec.
func (s *Service) Submit(spec Spec) (JobView, error) { return s.SubmitFor("", spec) }

// SubmitFor is Submit with client attribution: when the service is
// configured with per-client quotas, the submission spends a token from
// client's bucket (an empty client string bypasses quotas). Admission
// control — quotas, cost-aware load shedding, and cost-based node budgets —
// applies only to submissions that need a synthesis; content-addressed
// cache hits are always served.
func (s *Service) SubmitFor(client string, spec Spec) (JobView, error) {
	def, coreJob, key, err := spec.resolve()
	if err != nil {
		return JobView{}, err
	}

	predicted := estimateCost(def)
	cheapNS := s.cfg.FastLaneNS
	if cheapNS <= 0 {
		cheapNS = int64(100 * time.Millisecond)
	}
	cheap := predicted.TotalNS <= cheapNS
	fastLane := cheap && s.cfg.FastLaneNS > 0

	cachedReport, cached := s.cache.Get(key)
	if !cached {
		if ok, _ := s.quotas.allow(client); !ok {
			s.metrics.add(&s.metrics.quotaRejected, 1)
			return JobView{}, fmt.Errorf("%w (client %q)", ErrQuotaExceeded, client)
		}
		if s.cfg.ShedWatermark > 0 && !cheap && s.q.generalDepth() >= s.cfg.ShedWatermark {
			s.metrics.add(&s.metrics.shed, 1)
			return JobView{}, ErrOverloaded
		}
		if s.cfg.CostBudgetScale > 0 && !cheap && coreJob.Options.NodeBudget == 0 {
			b := s.cfg.CostBudgetScale * predicted.PeakNodes
			if b < costBudgetFloor {
				b = costBudgetFloor
			}
			coreJob.Options.NodeBudget = b
		}
	}

	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.root, timeout)
	jctx, jcancel := context.WithCancelCause(ctx)
	j := &job{
		key:       key,
		spec:      spec,
		coreJob:   coreJob,
		client:    client,
		predicted: predicted,
		lane:      "general",
		ctx:       jctx,
		cancel:    jcancel,
		done:      make(chan struct{}),
		logger:    newJobLogger(s.cfg.MaxLogLines),
		events:    newEventLog(),
		state:     StateQueued,
		submitted: time.Now(),
	}
	if fastLane {
		j.lane = "fast"
	}
	// Release the deadline timer once the job reaches a terminal state.
	go func() {
		<-j.done
		cancel()
	}()
	j.coreJob.Options.Logf = j.logger.logf
	j.coreJob.Progress = j.events.phase

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jcancel(ErrClosed)
		close(j.done)
		return JobView{}, ErrClosed
	}
	s.seq++
	j.id = fmt.Sprintf("j%06d-%s", s.seq, key[:8])
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneLocked()
	s.metrics.add(&s.metrics.submitted, 1)

	// Content-addressed fast path: an identical finished job.
	if cached {
		s.mu.Unlock()
		s.finishFromCache(j, cachedReport)
		return j.view(), nil
	}

	// Coalesce onto an identical in-flight synthesis.
	if leader, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		j.events.state(StateQueued, "coalesced onto "+leader.id)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.follow(j, leader)
		}()
		s.logf("service: job %s coalesced onto %s (key %.8s)", j.id, leader.id, key)
		return j.view(), nil
	}

	// The leader may have finished between the unlocked cache check above
	// and here (Put happens before the in-flight slot clears, but this
	// submission can interleave between the two): one recheck under s.mu
	// closes the window.
	if report, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		s.finishFromCache(j, report)
		return j.view(), nil
	}

	// New synthesis: become the in-flight leader and enter the queue. A full
	// fast lane overflows onto the general lane before rejecting.
	s.inflight[key] = j
	pushed := s.q.tryPush(j, fastLane)
	if !pushed && fastLane {
		j.lane = "general"
		pushed = s.q.tryPush(j, false)
	}
	if !pushed {
		delete(s.inflight, key)
		delete(s.jobs, j.id)
		s.metrics.add(&s.metrics.submitted, -1)
		s.metrics.add(&s.metrics.rejected, 1)
		s.mu.Unlock()
		jcancel(ErrQueueFull)
		close(j.done)
		return JobView{}, ErrQueueFull
	}
	s.mu.Unlock()
	j.events.state(StateQueued, "")
	s.logf("service: job %s queued (model=%q key=%.8s lane=%s)", j.id, def.Name, key, j.lane)
	return j.view(), nil
}

// Job returns a snapshot of the job with the given id.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Cancel requests cancellation of a queued or running job. It returns the
// job's current view; cancellation completes asynchronously (the job
// transitions to cancelled at its next fixpoint boundary).
func (s *Service) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	j.cancel(errClientCancel)
	return j.view(), true
}

// Wait blocks until the job reaches a terminal state or ctx ends, and
// returns its final view.
func (s *Service) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.view(), nil
	case <-ctx.Done():
		return j.view(), ctx.Err()
	}
}

// worker is the pool loop: pop, run, repeat until the service closes.
// fastOnly workers serve nothing but the fast lane, so cheap jobs always
// have capacity waiting for them.
func (s *Service) worker(fastOnly bool) {
	for {
		j, ok := s.q.pop(s.root, fastOnly)
		if !ok {
			return
		}
		s.run(j)
	}
}

// run executes one synthesis on the calling worker.
func (s *Service) run(j *job) {
	if err := j.ctx.Err(); err != nil {
		// Deadline or client cancellation arrived while queued.
		s.finishCancelled(j, context.Cause(j.ctx))
		return
	}
	now := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.started = now
	wait := now.Sub(j.submitted)
	j.mu.Unlock()
	s.waits.record(wait)
	j.events.state(StateRunning, "")
	s.metrics.add(&s.metrics.running, 1)
	defer s.metrics.add(&s.metrics.running, -1)

	out, err := core.Run(j.ctx, j.coreJob)
	switch {
	case err != nil && j.ctx.Err() != nil:
		s.finishCancelled(j, context.Cause(j.ctx))
	case err != nil:
		s.finishFailed(j, err)
	default:
		report := core.NewRunReport(j.coreJob, out, j.spec.Case, j.spec.N)
		s.metrics.addRun(&report.Telemetry)
		// Publish to the cache BEFORE waking followers and clearing the
		// in-flight slot, so anyone released by either always finds it.
		s.cache.Put(j.key, report)
		s.finishDone(j, report, false)
	}
}

// follow completes a coalesced job from its leader's outcome — or from the
// follower's own deadline, whichever comes first. A follower whose leader
// fails or is cancelled does not inherit the failure (its deadline may be
// longer): it retries as a fresh submission of the same synthesis.
func (s *Service) follow(j, leader *job) {
	select {
	case <-j.ctx.Done():
		s.finishCancelled(j, context.Cause(j.ctx))
	case <-leader.done:
		if report, ok := s.cache.Get(j.key); ok {
			s.finishDone(j, report, true)
			return
		}
		// Leader did not produce a result. Take over: become leader or
		// follow whoever already did.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			s.finishCancelled(j, ErrClosed)
			return
		}
		if next, ok := s.inflight[j.key]; ok && next != j {
			s.mu.Unlock()
			s.follow(j, next)
			return
		}
		s.inflight[j.key] = j
		if !s.q.tryPush(j, j.lane == "fast") {
			delete(s.inflight, j.key)
			s.mu.Unlock()
			s.finishFailed(j, fmt.Errorf("retry after leader %s failed: %w", leader.id, ErrQueueFull))
			return
		}
		s.mu.Unlock()
		s.logf("service: job %s re-queued after leader %s produced no result", j.id, leader.id)
	}
}

// clearInflight releases the in-flight slot if j still owns it.
func (s *Service) clearInflight(j *job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

func (s *Service) finishDone(j *job, report core.RunReport, viaCache bool) {
	s.clearInflight(j)
	j.mu.Lock()
	j.state = StateDone
	j.report = &report
	j.cacheHit = viaCache
	j.finished = time.Now()
	j.mu.Unlock()
	s.metrics.add(&s.metrics.completed, 1)
	msg := ""
	if viaCache {
		msg = "cache"
	}
	j.events.state(StateDone, msg)
	close(j.done)
	s.logf("service: job %s done (cache_hit=%t)", j.id, viaCache)
}

func (s *Service) finishFromCache(j *job, report core.RunReport) {
	j.mu.Lock()
	j.state = StateDone
	j.report = &report
	j.cacheHit = true
	j.finished = time.Now()
	j.mu.Unlock()
	s.metrics.add(&s.metrics.completed, 1)
	j.events.state(StateDone, "cache")
	close(j.done)
	s.logf("service: job %s served from cache", j.id)
}

func (s *Service) finishFailed(j *job, err error) {
	s.clearInflight(j)
	j.mu.Lock()
	j.state = StateFailed
	j.err = err.Error()
	j.finished = time.Now()
	j.mu.Unlock()
	s.metrics.add(&s.metrics.failed, 1)
	j.events.state(StateFailed, err.Error())
	close(j.done)
	s.logf("service: job %s failed: %v", j.id, err)
}

func (s *Service) finishCancelled(j *job, cause error) {
	s.clearInflight(j)
	if cause == nil {
		cause = context.Canceled
	}
	j.mu.Lock()
	j.state = StateCancelled
	j.err = cause.Error()
	j.finished = time.Now()
	j.mu.Unlock()
	s.metrics.add(&s.metrics.cancelled, 1)
	j.events.state(StateCancelled, cause.Error())
	close(j.done)
	s.logf("service: job %s cancelled: %v", j.id, cause)
}

// jobByID returns the internal job record (the event stream handlers need
// the live eventLog, not a snapshot).
func (s *Service) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	return j, ok
}

// QueueDepth reports the total number of queued jobs across both lanes.
func (s *Service) QueueDepth() int { return s.q.depth() }

package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/encap"
)

// This file is the per-unit fault-tolerance layer: a retry loop with
// exponential backoff and full jitter around each (job, combo) attempt,
// and a per-attempt deadline. Everything here is deterministic by
// construction where it matters: retries never change what is committed
// (instance IDs are pre-assigned at plan time and only a unit's final
// successful output is recorded), and the jitter is derived from a
// seeded hash of (seed, job, combo, attempt), so a retried-then-
// succeeded run records a history byte-identical to a fault-free run
// and even its backoff schedule replays exactly under the same seed.

// RetryPolicy configures per-unit retries. Attempt n (0-based) that
// fails with a retryable error sleeps uniform[0, BaseDelay·2ⁿ) — "full
// jitter" — before the next attempt; the ceiling stops doubling once
// it reaches an hour.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per unit, including
	// the first; values below 1 mean 1 (no retry).
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first retry (default
	// 1ms when retries are enabled).
	BaseDelay time.Duration
	// Seed drives the jitter: the same seed replays the same delays for
	// the same (job, combo, attempt) coordinates regardless of worker
	// interleaving.
	Seed int64
}

// transienter is the duck-typed marker retry classification probes:
// error values that know whether they are transient implement it (the
// internal/faults injector does; net.Error-style tools can too).
type transienter interface{ Transient() bool }

// retryable classifies the errors a unit is retried on: context
// cancellation and deadline expiry are never retried, an
// error that self-describes via a Transient() bool method is believed,
// and anything else is presumed transient (flaky CAD tools are the
// normal case; a deterministic failure merely wastes MaxAttempts-1 short
// retries before surfacing).
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	return true
}

// backoff returns the full-jitter delay before retry number attempt
// (0-based) of the given unit, deterministic in (Seed, job, combo,
// attempt).
func (p RetryPolicy) backoff(job, combo, attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	ceil := base
	for i := 0; i < attempt && ceil < time.Hour; i++ {
		ceil *= 2
	}
	return time.Duration(jitterHash(p.Seed, job, combo, attempt) % uint64(ceil))
}

// jitterHash mixes the seed and unit coordinates through an FNV-1a-style
// avalanche — cheap, allocation-free, and stable across runs.
func jitterHash(seed int64, job, combo, attempt int) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range [4]uint64{uint64(seed), uint64(job), uint64(combo), uint64(attempt)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// runUnit executes one (job, combo) unit under the retry policy,
// returning one attemptRec per attempt (the successful final attempt,
// if any, is the zero record) — the attempt count is len(alog) and the
// deadline hits are the records marked timedOut. A cancelled run stops
// retrying immediately.
func (r *run) runUnit(ctx context.Context, u unitTask) (out encap.Outputs, alog []attemptRec, err error) {
	max := r.cfg.retry.MaxAttempts
	if max < 1 {
		max = 1
	}
	for a := 0; ; a++ {
		out, err = r.attemptUnit(ctx, u.j, u.ci)
		if err == nil {
			alog = append(alog, attemptRec{})
			return
		}
		rec := attemptRec{errMsg: err.Error()}
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			rec.timedOut = true
		}
		alog = append(alog, rec)
		if len(alog) >= max || ctx.Err() != nil || !retryable(err) {
			return
		}
		t := time.NewTimer(r.cfg.retry.backoff(u.j.idx, u.ci, a))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
	}
}

// attemptUnit performs a single attempt, bounded by the run's task
// timeout. When neither the run context nor a timeout can fire, the
// tool runs on the worker goroutine directly; otherwise it runs on a
// watchdog goroutine that is abandoned if the deadline expires first —
// a truly hung tool cannot be interrupted, but well-behaved
// encapsulations observe Request.Ctx and return promptly once it is
// cancelled.
func (r *run) attemptUnit(ctx context.Context, j *plannedJob, ci int) (encap.Outputs, error) {
	d := r.cfg.taskTimeout
	actx := ctx
	if d > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if actx.Done() == nil {
		return r.executeCombo(actx, j, j.combos[ci])
	}
	type result struct {
		out encap.Outputs
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := r.executeCombo(actx, j, j.combos[ci])
		ch <- result{out, err}
	}()
	select {
	case res := <-ch:
		return res.out, res.err
	case <-actx.Done():
		if d > 0 && errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			return nil, fmt.Errorf("exec: attempt exceeded the %v task timeout: %w", d, context.DeadlineExceeded)
		}
		return nil, actx.Err()
	}
}

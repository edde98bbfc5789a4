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
// retrying immediately. It returns errAbandoned when the last attempt
// was abandoned: the unit has then been reported for the worker
// (attemptUnit). start is when the unit started on its worker.
func (r *run) runUnit(ctx context.Context, u unitTask, start time.Time) (out encap.Outputs, alog []attemptRec, err error) {
	max := r.cfg.retry.MaxAttempts
	if max < 1 {
		max = 1
	}
	for a := 0; ; a++ {
		out, err = r.attemptUnit(ctx, u, start, alog)
		if err == nil {
			alog = append(alog, attemptRec{})
			return
		}
		if err == errAbandoned {
			return
		}
		alog = append(alog, failedAttempt(ctx, err))
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

// failedAttempt records an attempt that ended in err under the run
// context ctx: a deadline the run itself did not set is the task
// timeout.
func failedAttempt(ctx context.Context, err error) attemptRec {
	return attemptRec{errMsg: err.Error(),
		timedOut: errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil}
}

// errAbandoned ends the attempt of a worker whose tool outlived the
// attempt's context: the unit was reported without it.
var errAbandoned = errors.New("exec: attempt abandoned")

// attemptUnit performs a single attempt on the calling pool worker,
// bounded by the run's task timeout; prior are the unit's earlier
// attempts. When the attempt's context can fire — a cancellable run or
// a timeout — it first arms an AfterFunc on it. A truly hung tool
// cannot be interrupted, but well-behaved encapsulations observe
// Request.Ctx and return promptly once it is cancelled. If the context
// fires before the tool returns, the attempt is abandoned, and it ends
// the unit: a cancelled run stops and a deadline is not retried. The
// AfterFunc goroutine reports the unit with this attempt cut off, then
// runs the pool's worker loop in the abandoned worker's place. That
// worker keeps the tool; when the tool returns, stop tells it that the
// AfterFunc ran, and it drops the result and leaves the pool with
// errAbandoned.
func (r *run) attemptUnit(ctx context.Context, u unitTask, start time.Time, prior []attemptRec) (encap.Outputs, error) {
	d := r.cfg.taskTimeout
	actx := ctx
	if d > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	combo := u.j.combos[u.ci]
	if actx.Done() == nil {
		return r.executeCombo(actx, u.j, combo)
	}
	stop := context.AfterFunc(actx, func() {
		err := ctx.Err()
		if err == nil { // the attempt's own deadline fired
			err = fmt.Errorf("exec: attempt exceeded the %v task timeout: %w", d, context.DeadlineExceeded)
		}
		r.report(u, start, nil, append(prior, failedAttempt(ctx, err)), err)
		r.pool.work()
	})
	out, err := r.executeCombo(actx, u.j, combo)
	if !stop() {
		return nil, errAbandoned
	}
	return out, err
}

package daemon

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dpm/internal/kernel"
)

// RetryPolicy bounds a hardened controller↔daemon exchange. The
// paper's exchanges assume the fabric works; against crashes and
// partitions each request gets a reply deadline and transient failures
// are retried with exponential backoff plus jitter, up to MaxAttempts.
// The zero value selects the defaults.
type RetryPolicy struct {
	MaxAttempts  int           // total tries; default 4
	BaseDelay    time.Duration // first backoff; default 10ms
	MaxDelay     time.Duration // backoff ceiling; default 500ms
	ReplyTimeout time.Duration // per-attempt reply deadline; default 2s
	// Rand supplies the backoff jitter; nil uses the global math/rand
	// source. Tests and soaks inject a seeded source so retry timing is
	// reproducible. Session reconnect backoff shares it.
	Rand JitterSource
}

// JitterSource is the randomness a retry policy draws jitter from;
// *math/rand.Rand satisfies it.
type JitterSource interface {
	Int63n(n int64) int64
}

// globalJitter adapts the global math/rand source.
type globalJitter struct{}

func (globalJitter) Int63n(n int64) int64 { return rand.Int63n(n) }

// jitter returns a uniform jitter in [0, d) from the policy's source.
func (rp RetryPolicy) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	src := rp.Rand
	if src == nil {
		src = globalJitter{}
	}
	return time.Duration(src.Int63n(int64(d)))
}

// ErrExhausted wraps an exchange failure that persisted through every
// retry the policy allowed. Callers (the controller) use it to tell
// "the machine is not answering" from a request that failed outright.
var ErrExhausted = errors.New("daemon: retries exhausted")

// DefaultRetryPolicy returns the default policy values.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 500 * time.Millisecond, ReplyTimeout: 2 * time.Second}
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = def.MaxAttempts
	}
	if rp.BaseDelay <= 0 {
		rp.BaseDelay = def.BaseDelay
	}
	if rp.MaxDelay <= 0 {
		rp.MaxDelay = def.MaxDelay
	}
	if rp.ReplyTimeout <= 0 {
		rp.ReplyTimeout = def.ReplyTimeout
	}
	return rp
}

// transientExchangeErr classifies an exchange failure. Connection
// refusals, unreachable hosts, timeouts, and connections that died
// mid-exchange can all clear up (the daemon restarts, the partition
// heals); anything else — a process kill, an unknown machine name, a
// corrupt message — will not.
func transientExchangeErr(err error) bool {
	return errors.Is(err, ErrSessionDown) ||
		errors.Is(err, kernel.ErrConnRefused) ||
		errors.Is(err, kernel.ErrHostUnreach) ||
		errors.Is(err, kernel.ErrTimedOut) ||
		errors.Is(err, kernel.ErrNotConn) ||
		errors.Is(err, kernel.ErrPipe) ||
		errors.Is(err, io.EOF)
}

// SessionExchange is Call hardened for a faulty fabric: each attempt
// runs under the policy's reply deadline, transient failures — a
// session down, a timed-out reply — back off exponentially with jitter,
// and the final error wraps the last failure. Requests must be
// idempotent under retry: the daemon's non-create requests naturally
// are, and creates carry an idempotency token (CreateReq.Token) for
// exactly this reason.
func SessionExchange(s *Session, req Message, rp RetryPolicy) (*Reply, error) {
	rp = rp.withDefaults()
	delay := rp.BaseDelay
	var lastErr error
	for i := 0; i < rp.MaxAttempts; i++ {
		if i > 0 {
			s.reg.Counter("daemon.retries").Inc()
			time.Sleep(delay + rp.jitter(delay))
			if delay *= 2; delay > rp.MaxDelay {
				delay = rp.MaxDelay
			}
		}
		rep, err := s.Call(req, rp.ReplyTimeout)
		if err == nil {
			return rep, nil
		}
		lastErr = err
		if !transientExchangeErr(err) {
			return nil, err
		}
	}
	s.reg.Counter("daemon.exhausted").Inc()
	return nil, fmt.Errorf("%w: %v to %s failed after %d attempts: %w",
		ErrExhausted, msgType(req), s.host, rp.MaxAttempts, lastErr)
}

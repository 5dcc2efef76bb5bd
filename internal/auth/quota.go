package auth

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"nmo/internal/obs"
)

// TenantQuota is one tenant's resource class. Zero values mean
// "unlimited" for the limits and "1" for the weight, so a minimal
// quota file only has to name what it wants to constrain.
type TenantQuota struct {
	// Weight is the tenant's deficit-round-robin share. Tenants at
	// weight 3 complete ~3x the engine runs of weight-1 tenants under
	// saturation. 0 means 1.
	Weight int `json:"weight,omitempty"`
	// RatePerSec caps sustained job submissions per second (token
	// bucket). 0 = unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth; defaults to max(1, ceil(RatePerSec))
	// when a rate is set.
	Burst int `json:"burst,omitempty"`
	// MaxInFlight caps the tenant's concurrently live leader jobs
	// (queued + running) on a shard. Cache hits and coalesced
	// followers are free — they cost no engine time. 0 = unlimited.
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// NormWeight returns the effective DRR weight (>= 1).
func (q TenantQuota) NormWeight() int {
	if q.Weight < 1 {
		return 1
	}
	return q.Weight
}

// Quotas maps tenants to their classes, with a default class for
// tenants not listed. The JSON shape:
//
//	{
//	  "default": {"weight": 1, "rate_per_sec": 50, "max_in_flight": 8},
//	  "tenants": {
//	    "ops":  {"weight": 3},
//	    "tiny": {"weight": 1, "max_in_flight": 1}
//	  }
//	}
type Quotas struct {
	Default TenantQuota            `json:"default"`
	Tenants map[string]TenantQuota `json:"tenants,omitempty"`
}

// LoadQuotas reads and parses a quota file.
func LoadQuotas(path string) (*Quotas, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	q, err := parseQuotas(raw)
	if err != nil {
		return nil, fmt.Errorf("quota file %s: %w", path, err)
	}
	return q, nil
}

// parseQuotas decodes a quota table. Unknown keys, data after the
// table and negative values are rejected, so a typo ("max_inflight"),
// a stray second object or a "-1" fails loudly at boot instead of
// silently granting weight 1 or unlimited quota.
func parseQuotas(raw []byte) (*Quotas, error) {
	var q Quotas
	if err := obs.DecodeStrict(bytes.NewReader(raw), &q); err != nil {
		return nil, err
	}
	check := func(class string, t TenantQuota) error {
		if t.Weight < 0 || t.RatePerSec < 0 || t.Burst < 0 || t.MaxInFlight < 0 {
			return fmt.Errorf("%s: negative quota %+v", class, t)
		}
		return nil
	}
	if err := check("default", q.Default); err != nil {
		return nil, err
	}
	for name, t := range q.Tenants {
		if err := check(fmt.Sprintf("tenant %q", name), t); err != nil {
			return nil, err
		}
	}
	return &q, nil
}

// For returns the quota class for a tenant. Nil-safe: a nil Quotas
// (no -tenant-quotas flag) grants everyone the unlimited zero class.
func (q *Quotas) For(tenant string) TenantQuota {
	if q == nil {
		return TenantQuota{}
	}
	if t, ok := q.Tenants[tenant]; ok {
		return t
	}
	return q.Default
}

// Limiter enforces per-tenant token-bucket submission rates. Buckets
// are created on first use from the tenant's quota class; tenants with
// no rate configured never allocate a bucket.
type Limiter struct {
	quotas *Quotas
	mu     sync.Mutex
	bkts   map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

// NewLimiter builds a limiter over a quota table (nil = allow all).
func NewLimiter(q *Quotas) *Limiter {
	return &Limiter{quotas: q, bkts: map[string]*bucket{}}
}

// Allow charges one submission against the tenant's bucket, reporting
// whether it fits. Unlimited tenants always pass.
func (l *Limiter) Allow(tenant string, now time.Time) bool {
	tq := l.quotas.For(tenant)
	if tq.RatePerSec <= 0 {
		return true
	}
	burst := float64(tq.Burst)
	if burst < 1 {
		burst = tq.RatePerSec
		if burst < 1 {
			burst = 1
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.bkts[tenant]
	if b == nil {
		b = &bucket{tokens: burst, last: now, rate: tq.RatePerSec, burst: burst}
		l.bkts[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

package auth

import (
	"fmt"
	"net/http"
	"time"

	"nmo/internal/obs"
)

// Mode selects how the daemon authenticates requests.
type Mode string

const (
	// ModeNone trusts the network: the tenant comes from the
	// X-Nmo-Tenant dev header (or DefaultTenant). Quotas and fair
	// share still apply per claimed tenant.
	ModeNone Mode = "none"
	// ModeJWT requires a valid HS256 bearer token on protected routes.
	ModeJWT Mode = "jwt"
)

// ParseMode validates a -auth-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeNone, ModeJWT:
		return Mode(s), nil
	}
	return "", fmt.Errorf("auth: unknown mode %q (want none or jwt)", s)
}

// Config wires one daemon's auth stance.
type Config struct {
	Mode Mode
	// Key is the HS256 verification key (required in jwt mode; also
	// used to sign/verify the internal tenant header).
	Key []byte
	// Quotas is the tenant quota table (nil = unlimited).
	Quotas *Quotas
}

// Middleware authenticates requests and enforces edge quotas. One
// instance per daemon; Protect/LimitSubmit hand out per-route
// middleware funcs for obs.Router.
type Middleware struct {
	cfg     Config
	limiter *Limiter
	now     func() time.Time
}

// NewMiddleware validates the config (jwt mode without a key is a
// boot-time error, not a silent allow-all) and builds the middleware.
func NewMiddleware(cfg Config) (*Middleware, error) {
	if cfg.Mode == "" {
		cfg.Mode = ModeNone
	}
	if cfg.Mode == ModeJWT && len(cfg.Key) == 0 {
		return nil, fmt.Errorf("auth: mode jwt requires -auth-hmac-key-file")
	}
	return &Middleware{cfg: cfg, limiter: NewLimiter(cfg.Quotas), now: time.Now}, nil
}

// Key exposes the HMAC key (for signing the internal hop on outbound
// shard requests).
func (a *Middleware) Key() []byte { return a.cfg.Key }

// authenticate resolves the request's principal, favoring the signed
// internal header (gateway hop) over the end-user token so shards
// never re-verify JWTs the gateway already terminated.
func (a *Middleware) authenticate(r *http.Request) (Principal, error) {
	if tenant := r.Header.Get(TenantHeader); tenant != "" {
		if sig := r.Header.Get(TenantSigHeader); sig != "" && len(a.cfg.Key) > 0 {
			if !VerifyTenant(a.cfg.Key, tenant, sig) {
				return Principal{}, fmt.Errorf("%w: bad internal signature", ErrToken)
			}
			return Principal{Tenant: tenant, Via: "internal"}, nil
		}
		if a.cfg.Mode == ModeNone {
			// Dev fallback: header alone names the tenant. The
			// InternalHeader marks gateway-forwarded hops so the shard's
			// rate limiter defers to the gateway's (single enforcement
			// at the terminating edge).
			via := "none"
			if r.Header.Get(InternalHeader) != "" {
				via = "internal"
			}
			return Principal{Tenant: tenant, Via: via}, nil
		}
		// jwt mode with an unsigned tenant header: fall through to the
		// bearer token; the header is not a credential.
	}
	switch a.cfg.Mode {
	case ModeJWT:
		tok := BearerToken(r)
		if tok == "" {
			return Principal{}, fmt.Errorf("%w: missing bearer token", ErrToken)
		}
		claims, err := VerifyHS256(a.cfg.Key, tok, a.now())
		if err != nil {
			return Principal{}, err
		}
		return Principal{Tenant: claims.TenantName(), Via: "jwt"}, nil
	default:
		return Principal{Tenant: DefaultTenant, Via: "none"}, nil
	}
}

// Protect authenticates the request before the handler runs. Failures
// answer 401 with the standard envelope; the generic message keeps
// verification internals out of responses (the audit line carries the
// code either way). On success the principal lands in the context and
// the tenant on the request's ReqInfo, so per-tenant series and audit
// lines exist even for requests the handler later rejects.
func (a *Middleware) Protect(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, err := a.authenticate(r)
		if err != nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="nmo"`)
			obs.WriteError(w, r, http.StatusUnauthorized, obs.CodeUnauthorized,
				"missing or invalid credentials")
			return
		}
		ctx := WithPrincipal(r.Context(), p)
		obs.SetTenant(ctx, p.Tenant)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// LimitSubmit charges the tenant's token bucket for one submission.
// Internal hops skip the charge: the gateway already charged the
// tenant at the terminating edge, and double-billing the shard hop
// would halve every configured rate. Mount after Protect.
func (a *Middleware) LimitSubmit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, _ := PrincipalFrom(r.Context())
		if p.Via != "internal" && !a.limiter.Allow(p.Tenant, a.now()) {
			obs.WriteError(w, r, http.StatusTooManyRequests, obs.CodeQuotaExceeded,
				fmt.Sprintf("tenant %q submission rate exceeded", p.Tenant))
			return
		}
		next.ServeHTTP(w, r)
	})
}

package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

func mustSign(t *testing.T, key []byte, c Claims) string {
	t.Helper()
	tok, err := SignHS256(key, c)
	if err != nil {
		t.Fatalf("SignHS256: %v", err)
	}
	return tok
}

// forgeToken builds a token with an arbitrary header object and claim
// set, signed with key (pass nil to leave the signature empty).
func forgeToken(t *testing.T, hdr map[string]any, claims Claims, key []byte) string {
	t.Helper()
	h, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(claims)
	if err != nil {
		t.Fatal(err)
	}
	signing := b64.EncodeToString(h) + "." + b64.EncodeToString(b)
	if key == nil {
		return signing + "."
	}
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte(signing))
	return signing + "." + b64.EncodeToString(mac.Sum(nil))
}

func TestVerifyHS256Table(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	future := now.Add(time.Hour).Unix()
	past := now.Add(-time.Hour).Unix()

	cases := []struct {
		name       string
		token      string
		wantErr    bool
		wantTenant string
	}{
		{
			name:       "valid sub claim",
			token:      mustSign(t, testKey, Claims{Sub: "alice", Exp: future}),
			wantTenant: "alice",
		},
		{
			name:       "valid tenant claim",
			token:      mustSign(t, testKey, Claims{Tenant: "ops", Exp: future}),
			wantTenant: "ops",
		},
		{
			name:       "tenant wins over sub",
			token:      mustSign(t, testKey, Claims{Sub: "alice", Tenant: "ops", Exp: future}),
			wantTenant: "ops",
		},
		{
			name:       "no exp means no expiry",
			token:      mustSign(t, testKey, Claims{Sub: "alice"}),
			wantTenant: "alice",
		},
		{
			name:    "expired",
			token:   mustSign(t, testKey, Claims{Sub: "alice", Exp: past}),
			wantErr: true,
		},
		{
			name:    "exp exactly now rejected",
			token:   mustSign(t, testKey, Claims{Sub: "alice", Exp: now.Unix()}),
			wantErr: true,
		},
		{
			name:    "bad signature (wrong key)",
			token:   mustSign(t, []byte("another-key-entirely-wrong-here!"), Claims{Sub: "alice", Exp: future}),
			wantErr: true,
		},
		{
			name: "tampered claims",
			token: func() string {
				tok := mustSign(t, testKey, Claims{Sub: "alice", Exp: future})
				parts := strings.Split(tok, ".")
				forged, _ := json.Marshal(Claims{Sub: "mallory", Exp: future})
				parts[1] = b64.EncodeToString(forged)
				return strings.Join(parts, ".")
			}(),
			wantErr: true,
		},
		{
			name:    "missing claim (no sub, no tenant)",
			token:   mustSign(t, testKey, Claims{Exp: future}),
			wantErr: true,
		},
		{
			// Encoded and signed by hand, not by SignHS256: a token
			// minted elsewhere (openssl, a JWT library) is accepted.
			name:       "hand-minted HS256",
			token:      forgeToken(t, map[string]any{"alg": "HS256", "typ": "JWT"}, Claims{Sub: "smoke", Exp: future}, testKey),
			wantTenant: "smoke",
		},
		{
			name:    "alg none rejected",
			token:   forgeToken(t, map[string]any{"alg": "none", "typ": "JWT"}, Claims{Sub: "alice", Exp: future}, nil),
			wantErr: true,
		},
		{
			name:    "alg none with valid HMAC still rejected",
			token:   forgeToken(t, map[string]any{"alg": "none", "typ": "JWT"}, Claims{Sub: "alice", Exp: future}, testKey),
			wantErr: true,
		},
		{
			name:    "alg RS256 rejected",
			token:   forgeToken(t, map[string]any{"alg": "RS256", "typ": "JWT"}, Claims{Sub: "alice", Exp: future}, testKey),
			wantErr: true,
		},
		{
			name:    "two segments",
			token:   "aaaa.bbbb",
			wantErr: true,
		},
		{
			name:    "four segments",
			token:   "aaaa.bbbb.cccc.dddd",
			wantErr: true,
		},
		{
			name:    "empty token",
			token:   "",
			wantErr: true,
		},
		{
			name:    "non-base64 header",
			token:   "!!!.bbbb.cccc",
			wantErr: true,
		},
		{
			name: "padded base64 segment rejected",
			token: func() string {
				// Segments must be raw (unpadded) URL encoding; explicit
				// '=' padding must fail the decode, not alias to the
				// same claims under a still-valid signature.
				tok := mustSign(t, testKey, Claims{Sub: "al", Exp: future})
				parts := strings.Split(tok, ".")
				raw, _ := b64.DecodeString(parts[1])
				parts[1] = base64.URLEncoding.EncodeToString(raw)
				if !strings.Contains(parts[1], "=") {
					t.Fatal("test setup: claims segment needs padding")
				}
				return strings.Join(parts, ".")
			}(),
			wantErr: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			claims, err := VerifyHS256(testKey, tc.token, now)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got claims %+v", claims)
				}
				if !errors.Is(err, ErrToken) {
					t.Fatalf("error %v does not wrap ErrToken", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if got := claims.TenantName(); got != tc.wantTenant {
				t.Fatalf("tenant = %q, want %q", got, tc.wantTenant)
			}
		})
	}
}

func TestSignVerifyTenant(t *testing.T) {
	sig := SignTenant(testKey, "ops")
	if !VerifyTenant(testKey, "ops", sig) {
		t.Fatal("valid tenant signature rejected")
	}
	if VerifyTenant(testKey, "other", sig) {
		t.Fatal("signature accepted for wrong tenant")
	}
	if VerifyTenant([]byte("wrong"), "ops", sig) {
		t.Fatal("signature accepted under wrong key")
	}
	if VerifyTenant(testKey, "ops", "zz-not-hex") {
		t.Fatal("non-hex signature accepted")
	}
	if VerifyTenant(testKey, "ops", "") {
		t.Fatal("empty signature accepted")
	}
}

func TestLoadKeyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "key")
	if err := os.WriteFile(path, []byte("  secret-key \n"), 0o600); err != nil {
		t.Fatal(err)
	}
	key, err := LoadKeyFile(path)
	if err != nil {
		t.Fatalf("LoadKeyFile: %v", err)
	}
	if string(key) != "secret-key" {
		t.Fatalf("key = %q, want trimmed %q", key, "secret-key")
	}

	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, []byte(" \n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeyFile(empty); err == nil {
		t.Fatal("empty key file accepted")
	}
	if _, err := LoadKeyFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing key file accepted")
	}
}

func TestBearerToken(t *testing.T) {
	cases := []struct {
		hdr  string
		want string
	}{
		{"Bearer abc.def.ghi", "abc.def.ghi"},
		{"bearer abc", "abc"},
		{"Bearer   abc  ", "abc"},
		{"Basic dXNlcjpwYXNz", ""},
		{"Bearer", ""},
		{"", ""},
	}
	for _, tc := range cases {
		r, _ := http.NewRequest("GET", "/", nil)
		if tc.hdr != "" {
			r.Header.Set("Authorization", tc.hdr)
		}
		if got := BearerToken(r); got != tc.want {
			t.Errorf("BearerToken(%q) = %q, want %q", tc.hdr, got, tc.want)
		}
	}
}

func TestLoadQuotas(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "quotas.json")
	if err := os.WriteFile(good, []byte(`{
		"default": {"weight": 1, "rate_per_sec": 50, "max_in_flight": 8},
		"tenants": {
			"ops":  {"weight": 3},
			"tiny": {"weight": 1, "max_in_flight": 1}
		}
	}`), 0o600); err != nil {
		t.Fatal(err)
	}
	q, err := LoadQuotas(good)
	if err != nil {
		t.Fatalf("LoadQuotas: %v", err)
	}
	if got := q.For("ops").NormWeight(); got != 3 {
		t.Fatalf("ops weight = %d, want 3", got)
	}
	if got := q.For("tiny").MaxInFlight; got != 1 {
		t.Fatalf("tiny max_in_flight = %d, want 1", got)
	}
	// Unlisted tenants inherit the default class.
	if got := q.For("unknown").MaxInFlight; got != 8 {
		t.Fatalf("unknown tenant max_in_flight = %d, want default 8", got)
	}
	if got := q.For("unknown").RatePerSec; got != 50 {
		t.Fatalf("unknown tenant rate = %v, want default 50", got)
	}

	// Typos fail loudly rather than silently granting unlimited quota.
	bad := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(bad, []byte(`{"default": {"max_inflight": 1}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadQuotas(bad); err == nil {
		t.Fatal("unknown quota field accepted")
	}

	// So does a second value after the table: it is not merged in.
	for name, body := range map[string]string{
		"second.json":  `{"default":{"weight":1}} {"tenants":{"ops":{"max_inflight":1}}}`,
		"garbage.json": `{"default":{"weight":1}} x`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadQuotas(path); err == nil {
			t.Fatalf("%s: trailing data after the quota table accepted", name)
		}
	}
	// A negative value would read as weight 1 or unlimited: rejected.
	for _, body := range []string{
		`{"default":{"weight":-1}}`,
		`{"default":{"rate_per_sec":-0.5}}`,
		`{"tenants":{"ops":{"burst":-2}}}`,
		`{"tenants":{"ops":{"max_in_flight":-1}}}`,
	} {
		if _, err := parseQuotas([]byte(body)); err == nil {
			t.Errorf("negative quota accepted: %s", body)
		}
	}
	// Trailing whitespace is not data.
	nl := filepath.Join(dir, "newline.json")
	if err := os.WriteFile(nl, []byte("{\"default\":{\"weight\":2}}\n\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if q, err := LoadQuotas(nl); err != nil || q.For("x").NormWeight() != 2 {
		t.Fatalf("quota file with trailing newline: %v", err)
	}

	// Nil Quotas (no flag) grants the unlimited zero class.
	var nilQ *Quotas
	if got := nilQ.For("anyone"); got != (TenantQuota{}) {
		t.Fatalf("nil quotas class = %+v, want zero", got)
	}
	if got := (TenantQuota{}).NormWeight(); got != 1 {
		t.Fatalf("zero quota weight = %d, want 1", got)
	}
}

func TestLimiterTokenBucket(t *testing.T) {
	q := &Quotas{Tenants: map[string]TenantQuota{
		"slow": {RatePerSec: 2, Burst: 2},
		"free": {},
	}}
	l := NewLimiter(q)
	now := time.Unix(1_700_000_000, 0)

	// Burst of 2 drains, third is rejected.
	if !l.Allow("slow", now) || !l.Allow("slow", now) {
		t.Fatal("burst capacity not honored")
	}
	if l.Allow("slow", now) {
		t.Fatal("submission beyond burst allowed")
	}
	// Refill at 2/s: after 500ms exactly one token is back.
	now = now.Add(500 * time.Millisecond)
	if !l.Allow("slow", now) {
		t.Fatal("refilled token not granted")
	}
	if l.Allow("slow", now) {
		t.Fatal("second token granted before refill")
	}
	// A long idle period caps at burst, not unbounded accumulation.
	now = now.Add(time.Hour)
	if !l.Allow("slow", now) || !l.Allow("slow", now) {
		t.Fatal("bucket did not refill to burst after idle")
	}
	if l.Allow("slow", now) {
		t.Fatal("bucket exceeded burst after idle")
	}

	// No rate configured: never limited, never allocates a bucket.
	for i := 0; i < 1000; i++ {
		if !l.Allow("free", now) {
			t.Fatal("unlimited tenant throttled")
		}
	}
	l.mu.Lock()
	_, hasBucket := l.bkts["free"]
	l.mu.Unlock()
	if hasBucket {
		t.Fatal("unlimited tenant allocated a bucket")
	}
}

func TestParseMode(t *testing.T) {
	for _, ok := range []string{"none", "jwt"} {
		if _, err := ParseMode(ok); err != nil {
			t.Errorf("ParseMode(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "JWT", "basic", "mtls"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) accepted", bad)
		}
	}
}

func TestNewMiddlewareJWTRequiresKey(t *testing.T) {
	if _, err := NewMiddleware(Config{Mode: ModeJWT}); err == nil {
		t.Fatal("jwt mode without key accepted")
	}
	if _, err := NewMiddleware(Config{Mode: ModeJWT, Key: testKey}); err != nil {
		t.Fatalf("jwt mode with key rejected: %v", err)
	}
	m, err := NewMiddleware(Config{})
	if err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if m.cfg.Mode != ModeNone {
		t.Fatalf("default mode = %q, want none", m.cfg.Mode)
	}
}

func TestAuthenticatePaths(t *testing.T) {
	jwtMW, err := NewMiddleware(Config{Mode: ModeJWT, Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	noneMW, err := NewMiddleware(Config{Mode: ModeNone, Key: testKey})
	if err != nil {
		t.Fatal(err)
	}
	noneNoKey, err := NewMiddleware(Config{Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	tok := mustSign(t, testKey, Claims{Tenant: "ops"})

	mk := func(hdrs map[string]string) *http.Request {
		r, _ := http.NewRequest("POST", "/v1/jobs", nil)
		for k, v := range hdrs {
			r.Header.Set(k, v)
		}
		return r
	}

	cases := []struct {
		name    string
		mw      *Middleware
		hdrs    map[string]string
		want    Principal
		wantErr bool
	}{
		{
			name: "jwt: valid bearer",
			mw:   jwtMW,
			hdrs: map[string]string{"Authorization": "Bearer " + tok},
			want: Principal{Tenant: "ops", Via: "jwt"},
		},
		{
			name:    "jwt: missing token",
			mw:      jwtMW,
			hdrs:    nil,
			wantErr: true,
		},
		{
			name:    "jwt: unsigned tenant header is not a credential",
			mw:      jwtMW,
			hdrs:    map[string]string{TenantHeader: "mallory"},
			wantErr: true,
		},
		{
			name: "jwt: signed internal header trusted without token",
			mw:   jwtMW,
			hdrs: map[string]string{
				TenantHeader:    "ops",
				TenantSigHeader: SignTenant(testKey, "ops"),
			},
			want: Principal{Tenant: "ops", Via: "internal"},
		},
		{
			name: "jwt: forged internal signature rejected",
			mw:   jwtMW,
			hdrs: map[string]string{
				TenantHeader:    "ops",
				TenantSigHeader: SignTenant([]byte("wrong"), "ops"),
			},
			wantErr: true,
		},
		{
			name: "none: bare header names tenant",
			mw:   noneNoKey,
			hdrs: map[string]string{TenantHeader: "dev"},
			want: Principal{Tenant: "dev", Via: "none"},
		},
		{
			name: "none: internal marker upgrades via",
			mw:   noneNoKey,
			hdrs: map[string]string{TenantHeader: "dev", InternalHeader: "1"},
			want: Principal{Tenant: "dev", Via: "internal"},
		},
		{
			name: "none: no headers falls back to default tenant",
			mw:   noneMW,
			hdrs: nil,
			want: Principal{Tenant: DefaultTenant, Via: "none"},
		},
		{
			name: "none with key: bad signature still rejected",
			mw:   noneMW,
			hdrs: map[string]string{
				TenantHeader:    "dev",
				TenantSigHeader: "00",
			},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.mw.authenticate(mk(tc.hdrs))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got %+v", p)
				}
				return
			}
			if err != nil {
				t.Fatalf("authenticate: %v", err)
			}
			if p != tc.want {
				t.Fatalf("principal = %+v, want %+v", p, tc.want)
			}
		})
	}
}

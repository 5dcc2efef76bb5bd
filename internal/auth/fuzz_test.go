package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// FuzzVerifyHS256 drives arbitrary compact tokens through the
// verifier. With sign set, the harness first replaces the text after
// the last dot by the true HMAC of what precedes it, so the checks that
// run after the signature (claims decoding, exp, tenant) see arbitrary
// input too. VerifyHS256 must never panic, and every rejection must
// wrap ErrToken. A token it accepts must declare alg HS256, name a
// tenant and be unexpired at now; re-signing the accepted claims must
// give a token that verifies to the same claims.
func FuzzVerifyHS256(f *testing.F) {
	key := []byte("fuzz-key")
	now := time.Unix(1_700_000_000, 0)

	valid, err := SignHS256(key, Claims{Tenant: "ops", Exp: now.Unix() + 60})
	if err != nil {
		f.Fatal(err)
	}
	segs := strings.Split(valid, ".")
	none := b64.EncodeToString([]byte(`{"alg":"none","typ":"JWT"}`)) + "." +
		b64.EncodeToString([]byte(`{"tenant":"ops"}`)) + "."
	for _, seed := range []string{
		valid,
		none,
		segs[0] + "." + segs[1], // no signature segment
		segs[0],                 // header only
		valid[:len(valid)-5],    // truncated signature
		segs[0][:5] + "." + segs[1] + "." + segs[2], // truncated header
		segs[0] + "." + segs[1][:7] + "." + segs[2], // truncated claims
		"..",
		"",
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}

	f.Fuzz(func(t *testing.T, token string, sign bool) {
		if i := strings.LastIndexByte(token, '.'); sign && i >= 0 {
			mac := hmac.New(sha256.New, key)
			mac.Write([]byte(token[:i]))
			token = token[:i+1] + b64.EncodeToString(mac.Sum(nil))
		}
		claims, err := VerifyHS256(key, token, now)
		if err != nil {
			if !errors.Is(err, ErrToken) {
				t.Fatalf("rejection %v does not wrap ErrToken", err)
			}
			return
		}

		hdrJSON, err := b64.DecodeString(strings.Split(token, ".")[0])
		if err != nil {
			t.Fatalf("accepted token with undecodable header: %v", err)
		}
		var hdr struct {
			Alg string `json:"alg"`
		}
		if err := json.Unmarshal(hdrJSON, &hdr); err != nil || hdr.Alg != "HS256" {
			t.Fatalf("accepted token with header %q (alg %q, err %v)", hdrJSON, hdr.Alg, err)
		}
		if claims.TenantName() == "" {
			t.Fatalf("accepted claims %+v name no tenant", claims)
		}
		if claims.Exp != 0 && now.Unix() >= claims.Exp {
			t.Fatalf("accepted claims %+v expired at %d", claims, now.Unix())
		}

		resigned, err := SignHS256(key, claims)
		if err != nil {
			t.Fatal(err)
		}
		got, err := VerifyHS256(key, resigned, now)
		if err != nil || got != claims {
			t.Fatalf("re-signed claims %+v verify to %+v, %v", claims, got, err)
		}
	})
}

// FuzzLoadQuotas drives arbitrary bytes through the quota-file parser:
// it must never panic, and every table it accepts holds no negative
// weight, rate, burst or in-flight cap.
func FuzzLoadQuotas(f *testing.F) {
	for _, seed := range []string{
		`{"default":{"weight":1,"rate_per_sec":50,"max_in_flight":8},"tenants":{"ops":{"weight":3}}}`,
		`{"default":{"weight":-1}}`,
		`{"tenants":{"ops":{"rate_per_sec":-1e-9,"burst":2}}}`,
		`{"tenants":{"":{"max_in_flight":-3}}}`,
		`{"default":{"burst":1e400}}`,
		`{"default":{}} {}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		q, err := parseQuotas(raw)
		if err != nil {
			return
		}
		classes := map[string]TenantQuota{"default": q.Default}
		for name, tq := range q.Tenants {
			classes["tenant "+name] = tq
		}
		for name, tq := range classes {
			if tq.Weight < 0 || tq.RatePerSec < 0 || tq.Burst < 0 || tq.MaxInFlight < 0 {
				t.Fatalf("%s: accepted negative quota %+v from %q", name, tq, raw)
			}
		}
	})
}

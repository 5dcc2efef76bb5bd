package gateway

import (
	"fmt"
	"testing"
)

func ringOf(members ...string) *Ring {
	r := NewRing(0)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		// Content addresses are hex SHA-256 strings; shaped keys keep
		// the test honest about the real input distribution.
		out[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return out
}

func memberNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8077", i+1)
	}
	return out
}

// TestRingDeterministicPlacement: placement is a pure function of the
// member set — independent rebuilds and insertion orders route every
// key identically, which is what lets many gateway instances (and
// restarts) stay stateless.
func TestRingDeterministicPlacement(t *testing.T) {
	ms := memberNames(5)
	a := ringOf(ms...)
	b := ringOf(ms[4], ms[2], ms[0], ms[3], ms[1]) // same set, shuffled inserts
	for _, k := range keys(2000) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("key %.12s…: placement depends on insertion order (%s vs %s)",
				k, a.Lookup(k), b.Lookup(k))
		}
	}
	if got := a.Lookup(keys(1)[0]); got != ringOf(ms...).Lookup(keys(1)[0]) {
		t.Fatalf("rebuild changed placement")
	}
}

// TestRingBalance: with DefaultReplicas vnodes the per-member load
// stays near uniform for every fleet size the smoke tests run (2–8
// members).
func TestRingBalance(t *testing.T) {
	ks := keys(20000)
	for n := 2; n <= 8; n++ {
		r := ringOf(memberNames(n)...)
		counts := make(map[string]int)
		for _, k := range ks {
			counts[r.Lookup(k)]++
		}
		mean := float64(len(ks)) / float64(n)
		for m, c := range counts {
			if f := float64(c) / mean; f < 0.55 || f > 1.6 {
				t.Errorf("%d members: %s owns %.2fx the mean (%d keys)", n, m, f, c)
			}
		}
		if len(counts) != n {
			t.Errorf("%d members: only %d own any keys", n, len(counts))
		}
	}
}

// TestRingJoinRemapsMinimally: adding a member steals only its own
// arcs — every moved key moves *to* the new member, no key shuffles
// between the old members, and the moved fraction stays near 1/(n+1).
func TestRingJoinRemapsMinimally(t *testing.T) {
	ms := memberNames(5)
	r := ringOf(ms[:4]...)
	ks := keys(20000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k] = r.Lookup(k)
	}

	r.Add(ms[4])
	moved := 0
	for _, k := range ks {
		after := r.Lookup(k)
		if after == before[k] {
			continue
		}
		if after != ms[4] {
			t.Fatalf("key %.12s… moved %s -> %s: a join must only move keys onto the joiner",
				k, before[k], after)
		}
		moved++
	}
	want := float64(len(ks)) / 5
	if f := float64(moved) / want; f < 0.5 || f > 1.6 {
		t.Errorf("join moved %d keys, want about %.0f (1/5 of the keyspace)", moved, want)
	}
}

// TestRingLeaveRemapsToSuccessors: a ring built without one member
// re-homes exactly its keys, each onto the member Seq had already named
// as the key's first failover — so the gateway's walk-past-dead-members
// rule and an actual membership change agree on where everything lands.
func TestRingLeaveRemapsToSuccessors(t *testing.T) {
	ms := memberNames(5)
	r := ringOf(ms...)
	ks := keys(20000)
	victim := ms[2]
	type placement struct{ owner, successor string }
	before := make(map[string]placement, len(ks))
	for _, k := range ks {
		seq := r.Seq(k)
		if seq[0] != r.Lookup(k) {
			t.Fatalf("Seq(%.12s…)[0] = %s, want owner %s", k, seq[0], r.Lookup(k))
		}
		before[k] = placement{owner: seq[0], successor: seq[1]}
	}

	var rest []string
	for _, m := range ms {
		if m != victim {
			rest = append(rest, m)
		}
	}
	r = ringOf(rest...)
	for _, k := range ks {
		after := r.Lookup(k)
		p := before[k]
		if p.owner != victim {
			if after != p.owner {
				t.Fatalf("key %.12s… moved %s -> %s though its owner stayed up", k, p.owner, after)
			}
			continue
		}
		if after != p.successor {
			t.Fatalf("victim's key %.12s… re-homed to %s, want ring successor %s", k, after, p.successor)
		}
	}
}

// TestRingSeqCoversFleet: Seq enumerates every member exactly once,
// starting at the owner.
func TestRingSeqCoversFleet(t *testing.T) {
	ms := memberNames(6)
	r := ringOf(ms...)
	for _, k := range keys(200) {
		seq := r.Seq(k)
		if len(seq) != len(ms) {
			t.Fatalf("Seq returned %d members, want %d", len(seq), len(ms))
		}
		seen := make(map[string]bool)
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("Seq repeats %s", m)
			}
			seen[m] = true
		}
	}
}

// TestRingEmptyAndSingle: degenerate shapes answer sanely.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(0)
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want empty", got)
	}
	if r.Seq("k") != nil {
		t.Fatalf("empty ring Seq should be nil")
	}
	r.Add("only")
	for _, k := range keys(100) {
		if r.Lookup(k) != "only" {
			t.Fatalf("single-member ring mis-routed %q", k)
		}
	}
}

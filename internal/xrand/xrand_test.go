package xrand

import "testing"

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck-at-zero stream")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical outputs across different seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	if c1.Uint64() == c2.Uint64() {
		t.Error("derived streams with different labels coincide")
	}
	// Deriving must not consume parent state.
	p2 := New(7)
	p2.Derive(1)
	if parent.Uint64() != p2.Uint64() {
		t.Error("Derive mutated parent state")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestPerturbZeroBits(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Perturb(0) != 0 {
			t.Fatal("Perturb(0) must return 0")
		}
	}
}

func TestPerturbRangeAndMean(t *testing.T) {
	r := New(11)
	const bits = 8
	span := int64(1) << bits
	var sum int64
	const n = 100000
	for i := 0; i < n; i++ {
		p := r.Perturb(bits)
		if p <= -span/2-1 || p > span/2 {
			t.Fatalf("Perturb(%d) = %d out of range", bits, p)
		}
		sum += p
	}
	mean := float64(sum) / n
	// Uniform over (-128, 128]; mean should be ~0.5, allow slack.
	if mean < -2 || mean > 3 {
		t.Errorf("Perturb mean = %v, want ~0.5 (zero-mean dither)", mean)
	}
}

func TestPerturbBitsClamped(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		p := r.Perturb(40) // clamped to 16
		if p < -(1<<15) || p > 1<<15 {
			t.Fatalf("Perturb(40) = %d outside clamped range", p)
		}
	}
}

func TestUniformity(t *testing.T) {
	// Coarse chi-squared-ish sanity check over 16 buckets.
	r := New(99)
	var buckets [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Uint64()>>60]++
	}
	want := n / 16
	for i, c := range buckets {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d = %d, want %d±10%%", i, c, want)
		}
	}
}

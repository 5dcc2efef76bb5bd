package isa

import "testing"

func TestKindPredicates(t *testing.T) {
	memKinds := map[Kind]bool{
		KindLoad: true, KindStore: true, KindBlockLoad: true, KindBlockStore: true,
	}
	writeKinds := map[Kind]bool{KindStore: true, KindBlockStore: true}
	for k := Kind(0); k < numKinds; k++ {
		if got := k.IsMemory(); got != memKinds[k] {
			t.Errorf("%v.IsMemory() = %v, want %v", k, got, memKinds[k])
		}
		if got := k.IsWrite(); got != writeKinds[k] {
			t.Errorf("%v.IsWrite() = %v, want %v", k, got, writeKinds[k])
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Errorf("Kind(%d) has bad String %q", k, s)
		}
	}
	if s := Kind(200).String(); s != "kind(200)" {
		t.Errorf("unknown kind String = %q", s)
	}
}

func TestMarkerKindStrings(t *testing.T) {
	for m, want := range map[MarkerKind]string{
		0: "none", MarkerStart: "start", MarkerStop: "stop",
		MarkerAlloc: "alloc", MarkerFree: "free",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestSliceStream(t *testing.T) {
	ops := make([]Op, 10)
	for i := range ops {
		ops[i].Addr = uint64(i)
	}
	s := &SliceStream{Ops: ops}
	buf := make([]Op, 4)
	var got []uint64
	for {
		n := s.Fill(buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			got = append(got, buf[i].Addr)
		}
	}
	if len(got) != 10 {
		t.Fatalf("drained %d ops, want 10", len(got))
	}
	for i, a := range got {
		if a != uint64(i) {
			t.Fatalf("op %d has addr %d", i, a)
		}
	}
	if n := s.Fill(buf); n != 0 {
		t.Errorf("Fill after drain = %d, want 0", n)
	}
}

func TestFuncStream(t *testing.T) {
	calls := 0
	fs := FuncStream(func(dst []Op) int {
		if calls >= 2 {
			return 0
		}
		calls++
		dst[0] = Op{Kind: KindLoad}
		return 1
	})
	buf := make([]Op, 8)
	total := 0
	for n := fs.Fill(buf); n > 0; n = fs.Fill(buf) {
		if buf[0].Kind != KindLoad {
			t.Errorf("op kind = %v, want load", buf[0].Kind)
		}
		total += n
	}
	if total != 2 {
		t.Errorf("drained %d ops, want 2", total)
	}
}

func TestOpSize(t *testing.T) {
	// The simulator scans hundreds of millions of Ops; keep the struct
	// compact. This test pins the size so accidental growth is caught.
	var op Op
	_ = op
	const maxBytes = 32
	if s := sizeOfOp(); s > maxBytes {
		t.Errorf("sizeof(Op) = %d, want <= %d", s, maxBytes)
	}
}

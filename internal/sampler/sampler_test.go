package sampler

import (
	"strings"
	"testing"

	"nmo/internal/isa"
)

func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{
		"spe": KindSPE, "SPE": KindSPE, " arm64 ": KindSPE,
		"pebs": KindPEBS, "intel": KindPEBS, "x86_64": KindPEBS,
	} {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseKind("ibs")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	// The flag-validation satellite: the error itself must name every
	// supported backend so CLIs can print it verbatim.
	for _, k := range Kinds() {
		if !strings.Contains(err.Error(), string(k)) {
			t.Errorf("error %q does not name backend %s", err, k)
		}
	}
}

func TestKindArchPinning(t *testing.T) {
	if KindSPE.Arch() != isa.ArchARM64 {
		t.Errorf("SPE arch = %s", KindSPE.Arch())
	}
	if KindPEBS.Arch() != isa.ArchX86 {
		t.Errorf("PEBS arch = %s", KindPEBS.Arch())
	}
}

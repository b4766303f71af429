package repro

import (
	"math"
	"strings"
	"testing"

	"datalaws/internal/aqp"
)

// TestAllExperimentsAtSmallScale runs every registered experiment end to
// end; each experiment validates its own shape expectations internally and
// returns an error when the paper's claim does not hold.
func TestAllExperimentsAtSmallScale(t *testing.T) {
	sc := SmallScale()
	for _, ex := range Experiments {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			rep, err := ex.Run(sc)
			if err != nil {
				t.Fatalf("%s failed: %v", ex.ID, err)
			}
			if rep.ID != ex.ID {
				t.Fatalf("report ID %q for experiment %q", rep.ID, ex.ID)
			}
			if len(rep.Lines) == 0 {
				t.Fatal("empty report")
			}
			if rep.PaperClaim == "" || rep.Measured == "" {
				t.Fatal("report missing claim or measurement")
			}
			out := rep.String()
			if !strings.Contains(out, ex.ID) {
				t.Fatal("rendered report missing ID")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("T1"); !ok {
		t.Fatal("T1 missing")
	}
	if _, ok := ByID("t2a"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unexpected experiment")
	}
	if len(IDs()) != len(Experiments) {
		t.Fatal("IDs() incomplete")
	}
}

func TestLegalSetBloom(t *testing.T) {
	_, tb, d, err := lofarEngine(SmallScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := BloomLegalSet(tb.Chunks(), "source", []string{"nu"}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if !bl.ContainsUint64s(uint64(d.Source[i]), math.Float64bits(d.Nu[i])) {
			t.Fatal("bloom filter false negative")
		}
	}
	if bl.EstimatedFPRate() > 0.05 {
		t.Fatalf("fp rate = %g", bl.EstimatedFPRate())
	}
	// Bloom must be much smaller than exact for this data.
	exact, err := aqp.BuildLegalSet(tb.Chunks(), "source", []string{"nu"})
	if err != nil {
		t.Fatal(err)
	}
	if bl.SizeBytes() >= exact.SizeBytes() {
		t.Fatalf("bloom %d >= exact %d bytes", bl.SizeBytes(), exact.SizeBytes())
	}
}

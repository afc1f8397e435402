package bl

import (
	"testing"

	"pathprof/internal/cfg"
)

// TestSeqKeyGolden pins SeqKey's bytes: loop-path indexes and the profile
// and estimate lookups built on them key by this exact format.
func TestSeqKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		blocks []cfg.NodeID
		want   string
	}{
		{nil, ""},
		{[]cfg.NodeID{}, ""},
		{[]cfg.NodeID{7}, "7"},
		{[]cfg.NodeID{0, 12, 3}, "0,12,3"},
		{[]cfg.NodeID{cfg.None, 4}, "-1,4"},
	} {
		if got := SeqKey(tc.blocks); got != tc.want {
			t.Errorf("SeqKey(%v) = %q; want %q", tc.blocks, got, tc.want)
		}
	}
}

func TestSeqKeyAllocatesOnlyResult(t *testing.T) {
	blocks := []cfg.NodeID{0, 12, 3, 145, 7, 7, 30}
	if allocs := testing.AllocsPerRun(100, func() { _ = SeqKey(blocks) }); allocs != 1 {
		t.Fatalf("SeqKey allocates %.1f times; want 1 (the result string)", allocs)
	}
}

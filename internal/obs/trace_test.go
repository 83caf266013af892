package obs

import (
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := []string{"generate", "pipeline", "encode", "ship", "decode",
		"ingest", "snapshot", "replicate", "ack"}
	for s := Stage(0); s < stageCount; s++ {
		if s.String() != want[s] {
			t.Fatalf("stage %d = %q, want %q", s, s.String(), want[s])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage name")
	}
}

func TestObserveRecordsDefaultHistogram(t *testing.T) {
	before := stageHists[StageSnapshot].Count()
	Observe(StageSnapshot, 3*time.Millisecond)
	if got := stageHists[StageSnapshot].Count(); got != before+1 {
		t.Fatalf("count %d -> %d", before, got)
	}
}

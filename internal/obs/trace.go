package obs

import "time"

// Stage names one segment of the epoch lifecycle, in pipeline order:
// the agent generates an epoch, runs its source-side pipeline, encodes
// and ships the drain; the SP decodes it, ingests it (columnar or
// row), snapshots durable state, replicates to standbys, and acks.
type Stage uint8

const (
	StageGenerate Stage = iota
	StagePipeline
	StageEncode
	StageShip
	StageDecode
	StageIngest
	StageSnapshot
	StageReplicate
	StageAck
	stageCount
)

var stageNames = [stageCount]string{
	"generate", "pipeline", "encode", "ship", "decode",
	"ingest", "snapshot", "replicate", "ack",
}

// String returns the stage's label value in stage_latency_seconds.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageBounds are the upper bucket edges (seconds) of the per-stage
// latency histograms: 25µs up to 2.5s, covering the sub-millisecond
// columnar ingest as well as multi-hundred-millisecond replication
// waits.
var StageBounds = []float64{
	25e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5,
}

// stageHists holds the per-stage histogram handles in the default
// registry; resolved once at init, so Observe is a single bounds scan
// plus three atomic adds — no map lookups, no allocations.
var stageHists [stageCount]Histogram

func init() {
	for s := Stage(0); s < stageCount; s++ {
		stageHists[s] = defaultRegistry.LabeledHistogram(
			"stage_latency_seconds", "stage", s.String(), StageBounds)
	}
}

// StageHistogram returns the default registry's latency histogram for
// one stage — the handle pressure estimators (QuantileWindow) window
// over, e.g. StageIngest for admission gating.
func StageHistogram(s Stage) Histogram {
	if s < stageCount {
		return stageHists[s]
	}
	return Histogram{}
}

// Observe records one stage duration into the default registry's
// stage_latency_seconds histogram. It is always on (single atomic
// update); the caller typically gates the clock reads via Now/Since.
func Observe(s Stage, d time.Duration) {
	if s < stageCount {
		stageHists[s].Observe(d)
	}
}

// Since records the time elapsed from start for the stage. A zero
// start (what Now returns when observability is disabled) records
// nothing, so a disabled build pays no clock read and no atomics.
func Since(s Stage, start time.Time) {
	if start.IsZero() {
		return
	}
	Observe(s, time.Since(start))
}

// ObserveSince records the stage duration like Since and returns it, so
// callers that also need the measured duration (the pipeline feeding
// the epoch trace context) pay a single clock read. A zero start
// records nothing and returns 0.
func ObserveSince(s Stage, start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	d := time.Since(start)
	Observe(s, d)
	return d
}

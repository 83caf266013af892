package wire

// Control payloads for the fault-tolerance protocol (§IV-E): sequenced
// epoch shipping with SP acknowledgements, connection handshakes, and the
// durable snapshot format of internal/checkpoint. Control records travel
// in frames whose StreamID is ControlStreamID so they never collide with
// operator stage ids; on disk the snapshot codec reuses the same frames.

// ControlStreamID tags frames that carry protocol control records
// (handshakes, acks, epoch commits, snapshot metadata) instead of data
// destined for an operator stage.
const ControlStreamID = ^uint32(0) - 1

// ReplRowsStreamID tags frames on a replication connection that mirror
// result-log rows from a primary SP to its warm standby. The rows are
// ordinary result records; the stream id keeps them apart from operator
// stages and from watermark/control frames.
const ReplRowsStreamID = ^uint32(0) - 2

// Hello opens a sequenced connection: the agent announces its source id,
// the last epoch sequence number it assigned, the newest wire version it
// speaks (0 from pre-versioning builds), the newest primary term it has
// observed (0 from pre-HA builds), and whether its data frames are
// flate-compressed. The receiver replies with an Ack carrying the
// newest durably-applied sequence for that source plus its own version,
// term and compression support; both sides then use min(hello, ack) for
// the version and the agent adopts the larger term. The transport
// refuses a negotiated version below WireV4 on either side, and a
// compressing agent refuses an Ack without Compress. An SP that sees a
// Hello carrying a term above its own knows a newer primary was promoted
// and fences itself (rejects the connection).
// Hello records travel alone in their frame (the trailing extensions
// rely on it).
//
// Class and Tenant are the admission-control extension (appended after
// Compress): the agent declares its SLO class (the wire encoding of
// internal/admission — 0 means unspecified and decodes to the default
// class) and the tenant its traffic is accounted to (empty from
// pre-admission builds; the receiver then buckets by source id).
type Hello struct {
	Source   uint32
	Seq      uint64
	Version  uint32
	Term     uint64
	Compress bool
	Class    byte
	Tenant   string
}

// Ack acknowledges that every epoch of a source up to and including Seq
// is durable on the stream processor (applied, and covered by a snapshot
// when checkpointing is enabled). The agent prunes its replay buffer up
// to Seq. Version advertises the receiver's newest wire version, Term
// its primary term, and Compress whether it decodes flate-compressed
// columnar frames (all zero/false from older builds); like Hello, Ack
// records travel alone in their frame.
//
// ThrottleMicros and Replay are the admission-control extension
// (appended after Compress): ThrottleMicros is a backpressure hint — the
// receiver's admission controller asks the shipper to stretch its epoch
// cadence by that much (0 = no throttling) — and Replay asks the shipper
// to re-send its pending (unacked) epochs on the same connection, which
// the receiver uses to heal the sequence gap a shed epoch left without
// tearing the connection down. Both decode as zero/false from
// pre-admission builds.
type Ack struct {
	Source         uint32
	Seq            uint64
	Version        uint32
	Term           uint64
	Compress       bool
	ThrottleMicros uint64
	Replay         bool
}

// EpochEnd commits one shipped epoch: every data frame since the previous
// EpochEnd belongs to epoch Seq, which the receiver applies atomically
// (all frames, then the watermark) exactly once — duplicates with
// Seq ≤ last applied are discarded whole. Like Hello and Ack, EpochEnd
// records travel alone in their frame, which is what makes the trailing
// trace extension below unambiguous.
//
// TraceID onward is the trace-context extension (appended after
// Watermark): the agent-side half of the cross-process epoch trace that
// the receiver joins with its own decode/wait/ingest/snapshot/replicate/
// ack segments into an obs.EpochTrace. A pre-trace peer's EpochEnd ends
// at Watermark and decodes with TraceID 0 (= untraced); encoders emit
// the extension only when TraceID is nonzero, so untraced epochs stay
// byte-identical to older builds. StartMicros and SentMicros are agent
// wall-clock unix microseconds; SentMicros is stamped when the epoch's
// bytes are sealed into the replay buffer, so on a replayed epoch the
// receiver's ship segment honestly includes the buffering delay.
type EpochEnd struct {
	Seq       uint64
	Watermark int64

	TraceID     uint64 // nonzero arms cross-process tracing for this epoch
	StartMicros int64  // agent clock at epoch start (generate begin)
	GenMicros   uint64 // generate stage duration
	PipeMicros  uint64 // pipeline stage duration
	EncMicros   uint64 // encode stage duration
	SentMicros  int64  // agent clock when the epoch's bytes were sealed
}

// SnapshotHeader opens an encoded checkpoint snapshot: the epoch sequence
// it covers, the low watermark, the watermark through which results were
// already emitted, and (agent side) the newest acked epoch. Delta
// snapshots additionally carry the store id of the snapshot they extend
// (BaseID) and the Delta flag; full snapshots (and files written before
// delta support) leave both zero. Term persists the newest HA fencing
// term the node had observed (trailing extension, 0 from pre-HA files) —
// restoring it keeps a restarted agent or SP from trusting a stale
// primary it had already moved past.
type SnapshotHeader struct {
	Seq       uint64
	Watermark int64
	EmittedWM int64
	Acked     uint64
	BaseID    uint64
	Delta     bool
	Term      uint64
}

// StageMeta describes how one stage's rows in a delta snapshot apply to
// the reconstructed base state: Replace swaps the stage's rows wholesale
// (operators whose rows are not keyed, e.g. buffered join misses), while
// the default merges rows by (window, key) — a delta row supersedes the
// base row for its group. Closed lists windows the operator flushed
// since the base snapshot; their rows are dropped from the
// reconstruction so restored state does not resurrect emitted windows.
type StageMeta struct {
	Stage   int
	Replace bool
	Closed  []int64
}

// SourceState records one source's progress inside an SP snapshot: its
// observed watermark and the last epoch sequence applied for it.
type SourceState struct {
	Source     uint32
	Watermark  int64
	AppliedSeq uint64
}

// LoadFactors records a pipeline's per-proxy load factors inside an agent
// snapshot, so a restarted agent resumes routing exactly where it left
// off (deterministic replay needs identical routing decisions).
type LoadFactors struct {
	Factors []float64
}

// ReplayEpoch carries one fully encoded, unacknowledged epoch (the bytes
// a FrameWriter produced, EpochEnd included) inside an agent snapshot, so
// the replay buffer survives agent restarts.
type ReplayEpoch struct {
	Seq  uint64
	Data []byte
}

// Replication control records (internal/ha): a warm-standby SP attaches
// to the primary's replication listener with a ReplHello, the primary
// answers with its current full state and result-log tail and then
// streams every durable snapshot it saves; the standby acknowledges each
// applied snapshot so the primary can report replication lag.

// ReplHello opens a replication connection: the standby announces the
// newest primary snapshot id it has applied and the watermark through
// which its mirrored result log is already populated. The primary always
// resyncs state with a full folded snapshot; LogWM bounds how much
// result-log tail must be re-sent to heal any gap. Version is the wire
// version the standby decodes snapshot bytes with (appended; 0 from
// builds that sent none): the stream carries Snapshot.Encode's bytes as
// they are, so the primary refuses any version but its own rather than
// feed a standby columns it would misread. ReplHello travels alone in
// its frame.
type ReplHello struct {
	LastID  uint64
	LogWM   int64
	Version uint32
}

// ReplSnapshot carries one durable snapshot from primary to standby:
// the primary store id it was saved under, the id of the snapshot a
// delta extends (0 for full), the snapshot's progress measure in applied
// epochs, the primary's fencing term, and the snapshot's full encoding
// (the bytes Snapshot.Encode produced).
type ReplSnapshot struct {
	ID     uint64
	BaseID uint64
	Seq    uint64
	Term   uint64
	Delta  bool
	Data   []byte
}

// ReplAck reports that the standby durably applied the snapshot with the
// given primary store id and progress measure; the primary's replication
// lag gauge is its newest published Seq minus the newest acked one.
type ReplAck struct {
	ID  uint64
	Seq uint64
}

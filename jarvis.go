// Package jarvis is the public API of the Jarvis reproduction: a
// decentralized, data-level query-partitioning engine for large-scale
// server monitoring (Sandur et al., ICDE 2022).
//
// A monitoring query is declared as an operator pipeline (see
// S2SProbe/T2TProbe/LogAnalytics for the paper's queries, or build your
// own with NewQuery). Each monitored server runs a Source — the query's
// local replica behind control proxies plus the Jarvis runtime that
// adapts load factors to the CPU the foreground services leave over. A
// Processor merges drained records and partial aggregates from many
// sources into exact query results.
//
// Quickstart:
//
//	src, gen, _ := jarvis.NewPingmeshSource(1, 0.6) // 60% of one core
//	proc, _ := jarvis.NewProcessor(src.Query())
//	proc.RegisterSource(1)
//	for epoch := 0; epoch < 30; epoch++ {
//	    res, _ := src.RunEpoch(gen.NextWindow(1_000_000))
//	    _ = proc.Consume(1, res)
//	    for _, row := range proc.Results() { fmt.Println(row.Data) }
//	}
package jarvis

import (
	"jarvis/internal/core"
	"jarvis/internal/operator"
	"jarvis/internal/plan"
	"jarvis/internal/runtime"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// Core data model.
type (
	// Record is the unit of data flowing through pipelines.
	Record = telemetry.Record
	// Batch is a slice of records processed together.
	Batch = telemetry.Batch
	// AggRow is a mergeable aggregate row (count/sum/min/max/avg).
	AggRow = telemetry.AggRow
	// QuantileRow is a mergeable approximate-quantile sketch.
	QuantileRow = telemetry.QuantileRow
	// GroupKey identifies a group in GroupApply.
	GroupKey = telemetry.GroupKey
	// PingProbe is a Pingmesh latency probe record.
	PingProbe = telemetry.PingProbe
	// LogLine is a LogAnalytics text record.
	LogLine = telemetry.LogLine
)

// Query planning.
type (
	// Query is a declarative monitoring query.
	Query = plan.Query
	// OpSpec is one logical operator in a query.
	OpSpec = plan.OpSpec
)

// Query constructors.
var (
	// NewQuery starts a query builder.
	NewQuery = plan.NewQuery
	// S2SProbe is the paper's server-to-server latency query (Listing 1).
	S2SProbe = plan.S2SProbe
	// T2TProbe is the ToR-to-ToR latency query (Listing 2).
	T2TProbe = plan.T2TProbe
	// LogAnalytics is the per-tenant histogram query (Listing 3).
	LogAnalytics = plan.LogAnalytics
	// S2SQuantileProbe is the approximate-percentile variant of S2SProbe
	// (the mergeable aggregation class rule R-1 admits).
	S2SQuantileProbe = plan.S2SQuantileProbe
	// Optimize applies constant folding and predicate pushdown.
	Optimize = plan.Optimize
	// Explain renders a plan with its source-eligibility boundary.
	Explain = plan.Explain
	// SourceRules is the operator-eligibility rule set for data sources.
	SourceRules = plan.SourceRules
	// SPRules is the rule set for intermediate stream processors.
	SPRules = plan.SPRules
)

// Expression builders for optimizer-visible filter predicates.
var (
	// Fld references a record field by name (e.g. "errCode", "rtt").
	Fld = plan.Field
	// NumLit is a numeric literal.
	NumLit = plan.Num
	// StrLit is a string literal.
	StrLit = plan.Str
	// Eq compares for equality; And/Or/Not combine predicates.
	Eq  = plan.Eq
	And = plan.And
	Or  = plan.Or
	Not = plan.Not
)

// Key and value extractors for the built-in schemas.
var (
	// ProbePairKeyFn groups Pingmesh probes by (srcIP, dstIP).
	ProbePairKeyFn = operator.ProbePairKey
	// ProbeRTTFn extracts a probe's round-trip time in microseconds.
	ProbeRTTFn = operator.ProbeRTT
	// JobStatsKeyFn groups parsed log stats by (tenant, stat, bucket).
	JobStatsKeyFn = operator.JobStatsKey
)

// Deployable units.
type (
	// Source is a data-source agent: pipeline + control proxies + the
	// decentralized Jarvis runtime.
	Source = core.Source
	// SourceOptions configures a Source.
	SourceOptions = core.SourceOptions
	// Processor is the stream-processor side of a building block.
	Processor = core.Processor
	// BuildingBlock wires one Processor to n in-process Sources.
	BuildingBlock = core.BuildingBlock
	// Hierarchy is a multi-level tree of building blocks under a root SP
	// (Fig. 4(b)).
	Hierarchy = core.Hierarchy
	// EpochResult is one epoch's output from a Source.
	EpochResult = stream.EpochResult
	// RuntimeConfig tunes the adaptation algorithm.
	RuntimeConfig = runtime.Config
)

// Constructors for deployable units.
var (
	// NewSource compiles a query into a data-source agent.
	NewSource = core.NewSource
	// NewProcessor builds the SP-side replica of a query.
	NewProcessor = core.NewProcessor
	// NewBuildingBlock creates a processor plus n sources.
	NewBuildingBlock = core.NewBuildingBlock
	// NewHierarchy creates a tree of building blocks under a root SP.
	NewHierarchy = core.NewHierarchy
	// NewPingmeshSource is the quickstart helper used in examples.
	NewPingmeshSource = core.NewPingmeshSource
)

// Runtime configurations (§VI-C's three variants).
var (
	// DefaultRuntime is full Jarvis: LP initialization plus fine-tuning.
	DefaultRuntime = runtime.Defaults
	// LPOnlyRuntime disables fine-tuning (model-based only).
	LPOnlyRuntime = runtime.LPOnly
	// NoLPInitRuntime disables LP initialization (model-agnostic only).
	NoLPInitRuntime = runtime.NoLPInit
)

// Workload generators for the paper's datasets.
var (
	// NewPingGen synthesizes Pingmesh probe streams.
	NewPingGen = workload.NewPingGen
	// DefaultPingConfig is the paper's Pingmesh setup at 10× scale.
	DefaultPingConfig = workload.DefaultPingConfig
	// NewLogGen synthesizes LogAnalytics text logs.
	NewLogGen = workload.NewLogGen
	// DefaultLogConfig is the paper's LogAnalytics setup at 10× scale.
	DefaultLogConfig = workload.DefaultLogConfig
)

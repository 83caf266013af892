package telemetry

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// LogLine is one unstructured text log record from the LogAnalytics
// workload (paper Listing 3 / Helios scenario). Raw holds the full line;
// WireSize of the containing Record equals len(Raw).
type LogLine struct {
	Timestamp int64
	Raw       string
}

// NewLogRecord wraps a log line in a stream Record sized to the text.
func NewLogRecord(ts int64, raw string) Record {
	return Record{Time: ts, WireSize: len(raw), Data: &LogLine{Timestamp: ts, Raw: raw}}
}

// JobStats is the parsed representation of a LogAnalytics line: one
// (tenant, statistic) observation. The query buckets Stat with
// width_bucket(stat, 0, 100, 10) and counts per
// (tenant, statName, bucket).
type JobStats struct {
	Timestamp int64
	Tenant    string
	StatName  string // "job running time" | "cpu util" | "memory util"
	Stat      float64
	Bucket    int
}

// JobStatsWireSize approximates the serialized size of a parsed JobStats
// record: tenant + stat name strings plus numeric fields and envelope.
func (j *JobStats) JobStatsWireSize() int {
	return len(j.Tenant) + len(j.StatName) + 8 + 8 + 4 + 16
}

// ParseJobStats parses a LogAnalytics line of the form produced by
// workload.LogGen after the query's trim/lower-case Map, e.g.
//
//	tenant name=alpha-07, job running time=532, cpu util=74.2, memory util=31.0
//
// Fields are separated by commas; the line must already be trimmed and
// lower-cased. It returns one JobStats per statistic present on the line.
func ParseJobStats(ts int64, line string) ([]JobStats, error) {
	var out []JobStats
	tenant, err := ScanJobStats(line, func(name string, v float64) {
		out = append(out, JobStats{Timestamp: ts, StatName: name, Stat: v})
	})
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w: %q", err, line)
	}
	for i := range out {
		out[i].Tenant = tenant
	}
	return out, nil
}

var (
	errBadStat  = errors.New("statistic is not a finite decimal number")
	errNoTenant = errors.New("line has no tenant")
)

// ScanJobStats is the one LogAnalytics line parser — ParseJobStats and
// the query's SoA parse kernel both drive it. It walks the
// comma-separated key=value fields of line in place (no split, nothing
// allocated), calls stat for each statistic in line order, and returns
// the line's tenant (the last "tenant name" field wins). name and the
// tenant are substrings of line. Fields without '=' are skipped. The line
// is malformed — an error, after stat may already have been called for
// earlier fields — when it has no tenant or a statistic is not a finite
// decimal number: nan, inf and hex floats are rejected although
// strconv.ParseFloat reads them, because width_bucket of a non-finite
// value is an implementation-defined float→int conversion.
func ScanJobStats(line string, stat func(name string, v float64)) (tenant string, err error) {
	for rest, more := line, true; more; {
		var f string
		f, rest, more = strings.Cut(rest, ",")
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key == "tenant name" {
			tenant = val
			continue
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) || isHexFloat(val) {
			return "", errBadStat
		}
		stat(key, x)
	}
	if tenant == "" {
		return "", errNoTenant
	}
	return tenant, nil
}

// isHexFloat reports whether a number strconv.ParseFloat accepted was
// written with a 0x prefix (the only place that syntax admits an x).
func isHexFloat(val string) bool {
	return strings.IndexByte(val, 'x') >= 0 || strings.IndexByte(val, 'X') >= 0
}

// WidthBucket reproduces SQL width_bucket(v, lo, hi, n): values below lo
// map to bucket 0, above hi to n+1, and [lo,hi) is split into n equal
// buckets numbered 1..n. The LogAnalytics query uses (0, 100, 10).
func WidthBucket(v, lo, hi float64, n int) int {
	if n <= 0 {
		return 0
	}
	if v < lo {
		return 0
	}
	if v >= hi {
		return n + 1
	}
	return int((v-lo)/(hi-lo)*float64(n)) + 1
}

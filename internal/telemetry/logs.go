package telemetry

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
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
//	tenant name=alpha-07, job running time=532, cpu util=74.2, memory util=31.0 #xxxx
//
// with ScanJobStats; the line must already be trimmed and lower-cased.
// It returns one JobStats per statistic present on the line.
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
// the query's SoA parse kernel both drive it. It walks line once, in
// place (nothing allocated), up to the first " #" (the free-form payload
// after Listing 3's '=' split): fields are comma-separated, a field's key
// and value are cut at its first '=' and trimmed of space, and fields
// without '=' are skipped. It calls stat for each statistic in line order
// and returns the line's tenant (the last "tenant name" field wins); name
// and the tenant are substrings of line. The line is malformed — an
// error, after stat may already have been called for earlier fields —
// when it has no tenant or a statistic is not a finite decimal number:
// nan, inf and hex floats are rejected although strconv.ParseFloat reads
// them, because width_bucket of a non-finite value is an
// implementation-defined float→int conversion.
func ScanJobStats(line string, stat func(name string, v float64)) (tenant string, err error) {
	for i := 0; ; {
		j := nextEdge(line, i, &keyEdge)
		end := j // the field's last byte + 1
		if j < len(line) && line[j] == '=' {
			key := trimSpace(line[i:j])
			if key == "tenant name" {
				end = nextEdge(line, j+1, &valueEdge)
				tenant = trimSpace(line[j+1 : end])
			} else {
				x, e, ok := exactDecimal(line, j+1)
				if end = e; !ok {
					end = nextEdge(line, j+1, &valueEdge)
					val := trimSpace(line[j+1 : end])
					// strconv admits an x only in a hex float's 0x prefix.
					x, err = strconv.ParseFloat(val, 64)
					if err != nil || math.IsNaN(x) || math.IsInf(x, 0) || strings.ContainsAny(val, "xX") {
						return "", errBadStat
					}
				}
				stat(key, x)
			}
		}
		if end == len(line) || line[end] == '#' {
			break
		}
		i = end + 1
	}
	if tenant == "" {
		return "", errNoTenant
	}
	return tenant, nil
}

// keyEdge marks the bytes that end a field's key, valueEdge those that
// end its value; a '#' counts only after a space.
var keyEdge, valueEdge = [256]bool{'=': true, ',': true, '#': true}, [256]bool{',': true, '#': true}

// nextEdge returns the index of the first edge byte of line from i on.
func nextEdge(line string, i int, edge *[256]bool) int {
	for ; i < len(line); i++ {
		if c := line[i]; edge[c] && (c != '#' || i > 0 && line[i-1] == ' ') {
			break
		}
	}
	return i
}

// trimSpace is strings.TrimSpace, trimming ASCII space in place and
// deferring to it only when a byte ≥ 0x80, where Unicode space (U+0085,
// U+00A0, …) may begin, is left at an edge.
func trimSpace(s string) string {
	lo, hi := skipSpace(s, 0), len(s)
	for hi > lo && asciiSpace(s[hi-1]) {
		hi--
	}
	if lo < hi && (s[lo] >= utf8.RuneSelf || s[hi-1] >= utf8.RuneSelf) {
		return strings.TrimSpace(s)
	}
	return s[lo:hi]
}

// skipSpace returns the index of the first byte of s at or after i that
// is not ASCII space, or len(s).
func skipSpace(s string, i int) int {
	for i < len(s) && asciiSpace(s[i]) {
		i++
	}
	return i
}

func asciiSpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// exactDecimal reads the value that starts at line[i] when, trimmed of
// ASCII space, it reads [+-]digits[.digits] (a digit at least) with at
// most 19 digits and a mantissa m below 2^52, and the field ends after
// it. It returns ±float64(m) / 10^k, k the fraction digits (≤ 19, within
// Clinger's 22), and the field's end. Both operands are exact, so the one
// rounded division is the correctly rounded value: strconv's own exact
// path, the same bits. Any other value reports false.
func exactDecimal(line string, i int) (x float64, end int, ok bool) {
	i = skipSpace(line, i)
	neg := i < len(line) && line[i] == '-'
	if neg || i < len(line) && line[i] == '+' {
		i++
	}
	var m uint64
	digits, dot := 0, -1
	for ; i < len(line); i++ {
		if d := line[i] - '0'; d <= 9 {
			m, digits = m*10+uint64(d), digits+1
		} else if line[i] == '.' && dot < 0 {
			dot = digits
		} else {
			break
		}
	}
	if i = skipSpace(line, i); digits == 0 || digits > 19 || m >= 1<<52 ||
		i < len(line) && line[i] != ',' && (line[i] != '#' || line[i-1] != ' ') {
		return 0, 0, false
	}
	if x = float64(m); neg {
		x = -x
	}
	if dot >= 0 {
		x /= math.Pow10(digits - dot)
	}
	return x, i, true
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

package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// refScanJobStats is the line parser as it stood before the single walk:
// the payload cut at the first " #", then strings.Cut on commas and on
// '=', strings.TrimSpace on both halves and strconv.ParseFloat on the
// value. FuzzScanJobStats holds ScanJobStats to it.
func refScanJobStats(line string, stat func(name string, v float64)) (tenant string, err error) {
	for off := 0; ; {
		i := strings.IndexByte(line[off:], '#')
		if i < 0 {
			break
		}
		if i += off; i > 0 && line[i-1] == ' ' {
			line = line[:i-1]
			break
		}
		off = i + 1
	}
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
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) ||
			strings.IndexByte(val, 'x') >= 0 || strings.IndexByte(val, 'X') >= 0 {
			return "", errBadStat
		}
		stat(key, x)
	}
	if tenant == "" {
		return "", errNoTenant
	}
	return tenant, nil
}

type scannedStat struct {
	name string
	bits uint64
}

func scanAll(scan func(string, func(string, float64)) (string, error), line string) (string, bool, []scannedStat) {
	var got []scannedStat
	tenant, err := scan(line, func(name string, v float64) {
		got = append(got, scannedStat{name, math.Float64bits(v)})
	})
	return tenant, err != nil, got
}

// FuzzScanJobStats holds the single-walk parser to the reference: the
// same tenant, the same error decision and the same (name, float bits)
// calls in the same order — on errors too, where both have reported the
// statistics before the bad one. The seeds sit on the exact decimal
// path's edges and on the space that only the Unicode tables know.
func FuzzScanJobStats(f *testing.F) {
	for _, v := range []string{
		"1234567890123456789", "12345678901234567890", // 19 vs 20 digits
		"18446744073709551617",                 // 2^64+1: 20 digits wrap a uint64 to 1
		"4503599627370495", "4503599627370496", // mantissa 2^52−1 vs 2^52
		"249317142617429.956", // m > 2^53: rounding m, then dividing, is off by one ulp
		"-450359962737049.5", "0.4503599627370496",
		"0.0000000000000000000000001", "0.00000000000000000000001", // 22 vs 23 fraction digits
		"1.2345678901234567890123", "0.1234567890123456789",
		"-0", "+5", "5.", ".5", ".", "+", "-.", "", "1e5", "1_0", "0x1p-2", "nan", "+Inf",
		"007", "74.2", "-3", "1e999", "5..5", "++5", " 5", "5 ",
	} {
		f.Add("tenant name=t, cpu util=" + v + ", memory util=1")
	}
	for _, s := range []string{
		"tenant name=alpha-07, job running time=532, cpu util=74.2, memory util=31.0   #xxxxxxxx",
		" tenant name = a , cpu util=\u00855\u0085",
		"tenant name=\u0085, cpu util=1",
		"tenant name=a\u00a0, cpu util\u0085=1",
		"tenant name=a\xc2, cpu util=1\xa0",
		"tenant name=a #b, cpu util=5",
		"#tenant name=a, cpu util=5",
		"tenant name=a, cpu util=5#, memory util=6 #, job running time=7",
		"tenant name=a=b, cpu util=5=6",
		"garbage, tenant name=x, cpu util=5",
		"cpu util=5, memory util=6, tenant name=z",
		"tenant name=a, cpu util=5, tenant name=",
		"tenant name=a,,, cpu util=\t5\r,",
		"cpu util=5",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		wantTenant, wantErr, want := scanAll(refScanJobStats, line)
		tenant, gotErr, got := scanAll(ScanJobStats, line)
		if tenant != wantTenant || gotErr != wantErr {
			t.Fatalf("%q: tenant %q err %v, reference %q err %v", line, tenant, gotErr, wantTenant, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d stats %v, reference %d %v", line, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: stat %d is %q %#x, reference %q %#x", line, i, got[i].name, got[i].bits, want[i].name, want[i].bits)
			}
		}
	})
}

package plan

import (
	"fmt"
	"strings"

	"jarvis/internal/telemetry"
	"jarvis/internal/workload"
)

// T2TQuery builds the T2TProbe query against a synthetic table of the
// given size, peers only (§VI's default is 500; Fig. 8(b) starts at 50).
func T2TQuery(tableSize int) *Query {
	ips := make([]uint32, tableSize)
	for i := range ips {
		ips[i] = 0x0B000000 + uint32(i)
	}
	return T2TProbe(telemetry.NewToRTable(ips, 40))
}

// registrySources is how many agent ids registryToR covers.
const registrySources = 100

// registryToR is the table QueryByName("t2t") joins against, so agents
// and SPs naming the query build the same one: the source IPs of agents
// 1..registrySources (0x0A000000+id, which srcToR must find), then peers
// up to §VI's 500 entries, the size T2TQuery(500)'s join cost is
// calibrated on.
func registryToR() *telemetry.ToRTable {
	ips := make([]uint32, 500)
	for i := range ips {
		if i < registrySources {
			ips[i] = 0x0A000001 + uint32(i)
		} else {
			ips[i] = 0x0B000000 + uint32(i-registrySources)
		}
	}
	return telemetry.NewToRTable(ips, 40)
}

// QueryByName returns one of the canonical queries — "s2s", "t2t",
// "log", "spans" — with its 10×-scaled input rate in Mbps.
func QueryByName(name string) (*Query, float64, error) {
	switch strings.ToLower(name) {
	case "s2s", "s2sprobe":
		return S2SProbe(), workload.PingmeshMbps10x, nil
	case "t2t", "t2tprobe":
		return T2TProbe(registryToR()), workload.PingmeshMbps10x, nil
	case "log", "loganalytics":
		return LogAnalytics(), workload.LogMbps10x, nil
	case "spans", "tracespanagg":
		return TraceSpanAgg(), workload.SpanMbps10x, nil
	default:
		return nil, 0, fmt.Errorf("plan: unknown query %q", name)
	}
}

package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
)

const (
	// satWindow is the saturation phase's closed-loop window: an agent
	// ships back-to-back while fewer than this many epochs are unacked.
	satWindow = 4
	// satSlice is the unit the saturation phase is counted in; segment is
	// the open loop's.
	satSlice = 500 * time.Millisecond
	segment  = time.Second
	// drainDeadline is how long the run waits for the last acks; an epoch
	// still unacked after it has failed.
	drainDeadline = 5 * time.Second
)

// openStats is what one open-loop phase measured (warm-up epochs
// excluded).
type openStats struct {
	start       time.Time // due time of the first measured epoch
	first, last []uint64  // per agent: measured sequence range, inclusive
	lateMs      []float64 // how late each measured epoch started vs its due time
	unackedMax  int
	backlogMid  float64 // unacked epochs at due time, summed over agents: mean over the second quarter
	backlogEnd  float64 // ... and over the last quarter
}

// each runs f for every agent concurrently and returns the first error.
func (t *topology) each(f func(i int, a *agent) error) error {
	errs := make([]error, len(t.agents))
	var wg sync.WaitGroup
	for i, a := range t.agents {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = f(i, a) }()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (a *agent) unacked() int { return int(a.ship.Seq() - a.ship.Acked()) }

func (t *topology) connected() bool {
	for _, a := range t.agents {
		if !a.ship.Connected() {
			return false
		}
	}
	return true
}

// openLoop runs warm+n epochs per agent on the fixed schedule: agent i's
// epoch k is due at t0 + k·P + i·P/numAgents, whatever the system does.
// The offset keeps the agents' epochs from colliding every period, which
// would make the latency distribution bimodal with the median on the
// seam. The first warm epochs converge the runtime and fill pools and
// are not measured.
func (t *topology) openLoop(warm, n int) (openStats, error) {
	p := t.spec.period
	t0 := time.Now().Add(2 * time.Millisecond)
	st := openStats{
		start: t0.Add(time.Duration(warm) * p),
		first: make([]uint64, len(t.agents)), last: make([]uint64, len(t.agents)),
	}
	var mu sync.Mutex
	err := t.each(func(i int, a *agent) error {
		offset := time.Duration(i) * p / numAgents
		st.first[i] = a.ship.Seq() + uint64(warm) + 1
		st.last[i] = a.ship.Seq() + uint64(warm+n)
		late := make([]float64, 0, n)
		backlog := make([]float64, 0, n)
		unackedMax := 0
		for k := 0; k < warm+n; k++ {
			due := t0.Add(time.Duration(k)*p + offset)
			sleepUntil(due)
			if k == warm && i == 0 {
				t.capture.arm() // traced runs: the layer replay wants steady-state epochs
			}
			if k >= warm {
				late = append(late, ms(time.Since(due)))
				backlog = append(backlog, float64(a.unacked()))
			}
			if err := a.runEpoch(due); err != nil {
				return err
			}
			if u := a.unacked(); k >= warm && u > unackedMax {
				unackedMax = u
			}
		}
		mu.Lock()
		st.lateMs = append(st.lateMs, late...)
		st.unackedMax = max(st.unackedMax, unackedMax)
		st.backlogMid += mean(backlog[n/4 : n/2])
		st.backlogEnd += mean(backlog[n-n/4:])
		mu.Unlock()
		return nil
	})
	return st, err
}

// saturate has every agent ship back-to-back for dur while fewer than
// satWindow of its epochs are unacked, and returns the input records
// durably acked per wall second: the median over the phase's satSlice
// slices.
func (t *topology) saturate(dur time.Duration) (recordsPerS float64, err error) {
	start := time.Now()
	deadline := start.Add(dur)
	err = t.each(func(_ int, a *agent) error {
		timer := time.NewTimer(dur)
		defer timer.Stop()
		for time.Now().Before(deadline) {
			if a.unacked() >= satWindow {
				select {
				case <-a.acked:
					continue
				case <-timer.C:
					return nil
				}
			}
			if err := a.runEpoch(time.Now()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	// Let the window's last acks land, then count by ack arrival time, one
	// slice at a time: the median slice rate shrugs off a burst of noise
	// from the box that a whole-phase mean would absorb.
	sleepUntil(deadline.Add(20 * time.Millisecond))
	perSlice := make([]float64, int(dur/satSlice))
	for _, a := range t.agents {
		a.mu.Lock()
		for _, e := range a.epochs[1:] {
			if !e.ackAt.Before(start) {
				if i := int(e.ackAt.Sub(start) / satSlice); i < len(perSlice) {
					perSlice[i] += float64(e.records)
				}
			}
		}
		a.mu.Unlock()
	}
	return median(perSlice) / satSlice.Seconds(), nil
}

// drain waits for every shipped epoch's ack, up to drainDeadline.
func (t *topology) drain() {
	deadline := time.Now().Add(drainDeadline)
	for _, a := range t.agents {
		for a.unacked() > 0 && time.Now().Before(deadline) {
			select {
			case <-a.acked:
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
}

// openResult is the open-loop phase reduced to its metrics.
type openResult struct {
	latencies   []float64   // ascending, ms, acked epochs only
	bySegment   [][]float64 // the same latencies grouped by the segment their epoch was due in
	unacked     int         // measured epochs with no ack
	records     int
	drained     int
	wireBytes   int64
	budgetUsed  []float64
	epochBytes  []float64
	epochRecord []float64
}

// reduce reads the per-sequence records of the measured range. Call it
// after drain.
func (t *topology) reduce(st openStats) openResult {
	var r openResult
	place := func(due time.Time, lat float64) {
		i := int(due.Sub(st.start) / segment)
		for len(r.bySegment) <= i {
			r.bySegment = append(r.bySegment, nil)
		}
		r.bySegment[i] = append(r.bySegment[i], lat)
	}
	for i, a := range t.agents {
		a.mu.Lock()
		for _, e := range a.epochs[st.first[i] : st.last[i]+1] {
			if e.ackAt.IsZero() {
				r.unacked++
			} else {
				lat := ms(e.ackAt.Sub(e.due))
				r.latencies = append(r.latencies, lat)
				place(e.due, lat)
			}
			r.records += e.records
			r.drained += e.drained
			r.wireBytes += e.bytes
			r.budgetUsed = append(r.budgetUsed, e.used)
			r.epochBytes = append(r.epochBytes, float64(e.bytes))
			r.epochRecord = append(r.epochRecord, float64(e.records))
		}
		a.mu.Unlock()
	}
	slices.Sort(r.latencies)
	for _, seg := range r.bySegment {
		slices.Sort(seg)
	}
	return r
}

// segmentMedian returns the median, over the open loop's whole segments,
// of each segment's p-th percentile latency, and how many segments that
// was. A burst of noise from the box lands in a few segments and moves
// their percentiles, not the median of them.
func (r *openResult) segmentMedian(p float64) (float64, int) {
	var per []float64
	for i, seg := range r.bySegment {
		// The last segment is usually a fragment.
		if i == len(r.bySegment)-1 && len(r.bySegment) > 1 && len(seg) < len(r.bySegment[0])/2 {
			continue
		}
		if len(seg) > 0 {
			per = append(per, percentile(seg, p))
		}
	}
	return median(per), len(per)
}

// failures counts, over the whole run, the epochs that were shipped and
// never acked, evicted from a replay buffer, or shed by the receiver.
func (t *topology) failures() (attempted, failed int) {
	for _, a := range t.agents {
		a.mu.Lock()
		attempted += len(a.epochs) - 1
		for _, e := range a.epochs[1:] {
			if e.ackAt.IsZero() {
				failed++
			}
		}
		a.mu.Unlock()
		failed += int(a.ship.Dropped())
	}
	failed += int(t.rc.Counters().Get(transport.CtrEpochsShed))
	return attempted, failed
}

func (t *topology) loadFactors() [][]float64 {
	out := make([][]float64, len(t.agents))
	for i, a := range t.agents {
		out[i] = a.src.LoadFactors()[:a.src.Boundary()]
	}
	return out
}

// minEpochs is the fewest epochs any agent shipped.
func (t *topology) minEpochs() int {
	n := t.agents[0].next
	for _, a := range t.agents[1:] {
		n = min(n, a.next)
	}
	return n
}

// checkLog settles the topology and holds its result log against the
// oracle's window. Every window the slowest agent's epochs closed must
// be there.
func (t *topology) checkLog(want map[telemetry.GroupKey]resultRow) (windows int, err error) {
	got, err := t.settle()
	if err != nil {
		return 0, fmt.Errorf("sp advance: %w", err)
	}
	return verify(got, want, t.minEpochs()/t.spec.epochsPerWindow()-1)
}

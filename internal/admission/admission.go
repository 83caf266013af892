// Package admission implements overload protection at the SP edge:
// token-bucket admission control per tenant with SLO classes, priority-
// aware delaying of over-budget epochs, backpressure throttle hints for
// the shipper, and a degrade-don't-drop escape hatch that samples a
// sustained-overload tenant's raw records at a recorded rate
// (internal/synopsis WSP) instead of dropping them — results stay
// available at a bounded error and the tenant promotes back to exact
// processing when pressure clears.
//
// The controller is deliberately transport-agnostic: internal/transport
// asks it for a verdict per committed epoch and reports queue events
// back; the only shared vocabulary is (source id, tenant, class, bytes).
package admission

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"jarvis/internal/obs"
)

// Class is a tenant's SLO class. Ordering is priority: a higher value is
// served first when delayed epochs drain and shed last when the delay
// queue overflows.
type Class uint8

const (
	// BestEffort tenants are shed first and may be degraded to sketches.
	BestEffort Class = iota
	// Silver is the default class; it may be degraded under sustained
	// overload but sheds only after best-effort traffic.
	Silver
	// Gold tenants are never degraded to sketches — over-budget gold
	// epochs are delayed (and shed only when nothing lower remains).
	Gold

	// NumClasses is the number of SLO classes.
	NumClasses = 3
)

// String returns the canonical flag/metric spelling of the class.
func (c Class) String() string {
	switch c {
	case Gold:
		return "gold"
	case Silver:
		return "silver"
	default:
		return "best-effort"
	}
}

// ParseClass parses a class name as spelled by String (plus the obvious
// aliases).
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gold":
		return Gold, nil
	case "silver", "":
		return Silver, nil
	case "best-effort", "besteffort", "be":
		return BestEffort, nil
	}
	return Silver, fmt.Errorf("admission: unknown SLO class %q", s)
}

// Wire returns the class's wire encoding for the Hello trailing
// extension: 0 is reserved for "unspecified" (a pre-admission agent whose
// Hello ends before the field), so classes shift up by one.
func (c Class) Wire() byte { return byte(c) + 1 }

// ClassFromWire decodes a Hello class byte; 0 (unspecified / legacy
// agent) maps to Silver.
func ClassFromWire(b byte) Class {
	if b == 0 || b > byte(Gold)+1 {
		return Silver
	}
	return Class(b - 1)
}

// Metric names exposed through the controller's obs.Registry. epochs_shed
// intentionally has no adm_ prefix: it is the receiver-visible companion
// of epochs_applied/epochs_replayed.
const (
	CtrEpochsAdmitted = "adm_epochs_admitted"
	CtrEpochsDelayed  = "adm_epochs_delayed"
	CtrEpochsShed     = "epochs_shed"
	CtrEpochsDegraded = "adm_epochs_degraded" // admitted in sampled (sketch) form
	CtrBytesAdmitted  = "adm_bytes_admitted"
	CtrSampledOut     = "adm_records_sampled_out"

	GaugeTenantsDegraded = "adm_tenants_degraded"
	GaugeDelayedEpochs   = "adm_delayed_epochs"
	GaugeJainFairness    = "adm_jain_fairness"
	GaugeThrottleMicros  = "adm_throttle_micros"

	// HistClassLatency carries the end-to-end commit latency (EpochEnd
	// arrival to apply, queue wait included) per SLO class.
	HistClassLatency = "class_ingest_latency_seconds"
)

// Verdict is the controller's decision for one epoch commit.
type Verdict uint8

const (
	// Admitted: apply the epoch exactly, now.
	Admitted Verdict = iota
	// AdmittedDegraded: apply now, but sample the epoch's raw records at
	// the tenant's degraded rate (the Degrader rescales results).
	AdmittedDegraded
	// Delayed: hold the epoch in the priority staging queue until the
	// tenant's bucket refills; never ack it before it applies.
	Delayed
)

func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case AdmittedDegraded:
		return "admitted-degraded"
	default:
		return "delayed"
	}
}

// Config parameterizes a Controller. The zero value is unusable; start
// from DefaultConfig.
type Config struct {
	// RateBytesPerSec is the per-tenant token refill rate for a weight-1
	// class, in bytes of admitted epoch payload per second.
	RateBytesPerSec float64
	// BurstBytes is the bucket capacity (maximum unspent budget).
	BurstBytes float64
	// TenantRate overrides the refill rate for named tenants, in bytes
	// per second. An override is absolute (class weight does not scale
	// it); the burst scales by the global BurstBytes:RateBytesPerSec
	// ratio so an overridden tenant keeps the same burst headroom.
	TenantRate map[string]float64
	// ClassWeight scales the refill rate per class (index by Class).
	ClassWeight [NumClasses]float64
	// MaxDelayedEpochs bounds the receiver's delay queue across all
	// tenants; beyond it the lowest class's newest delayed epoch is shed.
	MaxDelayedEpochs int
	// DegradeAfter is the hysteresis up-threshold: consecutive
	// over-budget commits before a (non-gold) tenant degrades to
	// sampled ingestion.
	DegradeAfter int
	// PromoteAfter is the down-threshold: consecutive commits that would
	// have fit the exact budget before a degraded tenant promotes back.
	PromoteAfter int
	// DegradeRate is the WSP sampling rate applied to a degraded
	// tenant's raw records, in (0,1).
	DegradeRate float64
	// GoldDegrades permits degrading gold tenants too; by default gold
	// epochs are only ever delayed, never sampled.
	GoldDegrades bool
	// MaxThrottle caps the throttle hint advertised in acks.
	MaxThrottle time.Duration
	// Pressure optionally gates degradation on an external overload
	// signal (e.g. the p99 of the obs ingest-stage latency histogram, in
	// seconds): a tenant only degrades while Pressure() > PressureThreshold.
	// Nil means the bucket streak alone decides.
	Pressure          func() float64
	PressureThreshold float64
	// Now is the controller's clock (injectable for deterministic tests).
	Now func() time.Time
}

// DefaultConfig returns a config sized for the repo's synthetic agents:
// ~8 MB/s per silver tenant with a 2-second burst.
func DefaultConfig() Config {
	return Config{
		RateBytesPerSec:  8 << 20,
		BurstBytes:       16 << 20,
		ClassWeight:      [NumClasses]float64{0.5, 1, 2},
		MaxDelayedEpochs: 256,
		DegradeAfter:     3,
		PromoteAfter:     5,
		DegradeRate:      0.25,
		MaxThrottle:      2 * time.Second,
		Now:              time.Now,
	}
}

// bucket is a token bucket in bytes. Tokens may go negative on a forced
// take (degraded admission, forced gap drains): the debt delays the next
// exact admission instead of losing data.
type bucket struct {
	tokens float64
	rate   float64 // bytes per second
	burst  float64
	last   time.Time
}

func (b *bucket) refill(now time.Time) {
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * b.rate
		}
	}
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

func (b *bucket) fits(n float64) bool { return b.tokens >= n }
func (b *bucket) take(n float64)      { b.tokens -= n }

// Tenant is one tenant's admission state.
type tenant struct {
	name        string
	class       Class
	bucket      bucket
	ewmaBytes   float64 // admitted bytes per commit, EWMA (Jain input)
	overStreak  int
	underStreak int
	calmStreak  int // consecutive Admit calls with the pressure gate low
	degraded    bool
	delayed     int     // epochs currently held in the delay queue
	lastDeficit float64 // bytes the last over-budget commit was short
	stats       TenantStats
}

// TenantStats is one tenant's cumulative admission activity: epochs that
// entered the delay queue, were shed from it (and replayed by the
// shipper), and how often the tenant flipped to sampled ingestion and
// back.
type TenantStats struct {
	Delayed  int64 `json:"epochs_delayed"`
	Shed     int64 `json:"epochs_shed"`
	Degrades int64 `json:"degrades"`
	Promotes int64 `json:"promotes"`
}

// Controller is the admission controller shared by every connection of
// one receiver. All methods are safe for concurrent use.
type Controller struct {
	mu       sync.Mutex
	cfg      Config
	reg      *obs.Registry
	tenants  map[string]*tenant
	bySource map[uint32]*tenant
	deg      *Degrader

	ctrAdmitted obs.Counter
	ctrDelayed  obs.Counter
	ctrShed     obs.Counter
	ctrDegraded obs.Counter
	ctrBytes    obs.Counter
	gDegraded   obs.Gauge
	gDelayed    obs.Gauge
	gJain       obs.FloatGauge
	gThrottle   obs.Gauge
	classHist   [NumClasses]obs.Histogram
}

// NewController builds a controller from cfg (zero fields are filled from
// DefaultConfig).
func NewController(cfg Config) *Controller {
	def := DefaultConfig()
	if cfg.RateBytesPerSec <= 0 {
		cfg.RateBytesPerSec = def.RateBytesPerSec
	}
	if cfg.BurstBytes <= 0 {
		cfg.BurstBytes = 2 * cfg.RateBytesPerSec
	}
	if cfg.ClassWeight == ([NumClasses]float64{}) {
		cfg.ClassWeight = def.ClassWeight
	}
	if cfg.MaxDelayedEpochs <= 0 {
		cfg.MaxDelayedEpochs = def.MaxDelayedEpochs
	}
	if cfg.DegradeAfter <= 0 {
		cfg.DegradeAfter = def.DegradeAfter
	}
	if cfg.PromoteAfter <= 0 {
		cfg.PromoteAfter = def.PromoteAfter
	}
	if cfg.DegradeRate <= 0 || cfg.DegradeRate >= 1 {
		cfg.DegradeRate = def.DegradeRate
	}
	if cfg.MaxThrottle <= 0 {
		cfg.MaxThrottle = def.MaxThrottle
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := obs.NewRegistry()
	c := &Controller{
		cfg:         cfg,
		reg:         reg,
		tenants:     make(map[string]*tenant),
		bySource:    make(map[uint32]*tenant),
		deg:         NewDegrader(),
		ctrAdmitted: reg.Counter(CtrEpochsAdmitted),
		ctrDelayed:  reg.Counter(CtrEpochsDelayed),
		ctrShed:     reg.Counter(CtrEpochsShed),
		ctrDegraded: reg.Counter(CtrEpochsDegraded),
		ctrBytes:    reg.Counter(CtrBytesAdmitted),
		gDegraded:   reg.Gauge(GaugeTenantsDegraded),
		gDelayed:    reg.Gauge(GaugeDelayedEpochs),
		gJain:       reg.FloatGauge(GaugeJainFairness),
		gThrottle:   reg.Gauge(GaugeThrottleMicros),
	}
	for cl := Class(0); cl < NumClasses; cl++ {
		c.classHist[cl] = reg.LabeledHistogram(HistClassLatency, "class", cl.String(), obs.StageBounds)
	}
	c.deg.sampledOut = reg.Counter(CtrSampledOut)
	return c
}

// Counters exposes the controller's obs registry (admission counters,
// fairness gauge, per-class latency histograms).
func (c *Controller) Counters() *obs.Registry { return c.reg }

// Degrader returns the controller's degradation manager (sampling and
// result rescaling).
func (c *Controller) Degrader() *Degrader { return c.deg }

// MaxDelayed returns the configured bound on the delay queue.
func (c *Controller) MaxDelayed() int { return c.cfg.MaxDelayedEpochs }

// Now reads the controller's clock (the injected test clock or wall
// time). The receiver stamps delayed epochs with it so queueing latency
// is measured on the same clock the buckets refill on.
func (c *Controller) Now() time.Time { return c.cfg.Now() }

// Register binds a source id to a tenant and class (called per Hello).
// An empty tenant name defaults to "src-<id>" so per-agent limits apply
// even without tenancy labels.
func (c *Controller) Register(source uint32, name string, class Class) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerLocked(source, name, class)
}

func (c *Controller) registerLocked(source uint32, name string, class Class) *tenant {
	if name == "" {
		name = fmt.Sprintf("src-%d", source)
	}
	if class >= NumClasses {
		class = Silver
	}
	t := c.tenants[name]
	if t == nil {
		rate, burst := c.bucketParams(name, class)
		t = &tenant{name: name, class: class}
		t.bucket = bucket{rate: rate, burst: burst, tokens: burst}
		c.tenants[name] = t
	} else if t.class != class {
		t.class = class
		t.bucket.rate, t.bucket.burst = c.bucketParams(name, class)
	}
	c.bySource[source] = t
	return t
}

// bucketParams resolves a tenant's refill rate and burst: a TenantRate
// override wins outright (burst keeps the global burst:rate ratio);
// otherwise the class weight scales the global rate.
func (c *Controller) bucketParams(name string, class Class) (rate, burst float64) {
	if r, ok := c.cfg.TenantRate[name]; ok && r > 0 {
		ratio := 2.0
		if c.cfg.RateBytesPerSec > 0 && c.cfg.BurstBytes > 0 {
			ratio = c.cfg.BurstBytes / c.cfg.RateBytesPerSec
		}
		return r, r * ratio
	}
	return c.cfg.RateBytesPerSec * c.cfg.ClassWeight[class],
		c.cfg.BurstBytes * c.cfg.ClassWeight[class]
}

func (c *Controller) tenantOf(source uint32) *tenant {
	if t := c.bySource[source]; t != nil {
		return t
	}
	return c.registerLocked(source, "", Silver)
}

// Class returns the SLO class registered for a source (Silver when the
// source never said Hello).
func (c *Controller) Class(source uint32) Class {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenantOf(source).class
}

// Tenant returns the tenant name registered for a source.
func (c *Controller) Tenant(source uint32) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenantOf(source).name
}

// Admit decides one epoch commit of the given payload size. It never
// blocks; Delayed epochs stay the caller's to queue (report queue events
// with NoteDelayed/NoteDrained/NoteShed so gauges and shed accounting
// stay truthful).
func (c *Controller) Admit(source uint32, bytes int64) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantOf(source)
	now := c.cfg.Now()
	t.bucket.refill(now)
	n := float64(bytes)
	fits := t.bucket.fits(n)

	// Hysteresis runs on exact-budget affordability regardless of the
	// verdict, so degraded admissions do not feed back into promotion.
	if fits {
		t.underStreak++
		t.overStreak = 0
		t.lastDeficit = 0
	} else {
		t.overStreak++
		t.underStreak = 0
		t.lastDeficit = n - t.bucket.tokens
	}
	// With a pressure gate configured, the gate clearing is itself a
	// promotion signal: a degraded tenant may still be over its exact
	// budget (the backlog it accumulated while degraded keeps commits
	// over-sized), but once the measured overload is gone there is no
	// reason to keep sampling. calmStreak counts consecutive decisions
	// with the gate low, mirroring the underStreak hysteresis.
	if c.cfg.Pressure != nil {
		if c.pressureHigh() {
			t.calmStreak = 0
		} else {
			t.calmStreak++
		}
	}
	if !t.degraded && (t.class != Gold || c.cfg.GoldDegrades) &&
		t.overStreak >= c.cfg.DegradeAfter && c.pressureHigh() {
		c.setDegradedLocked(t, true, source)
	} else if t.degraded && (t.underStreak >= c.cfg.PromoteAfter ||
		(c.cfg.Pressure != nil && t.calmStreak >= c.cfg.PromoteAfter)) {
		c.setDegradedLocked(t, false, source)
	}

	switch {
	case fits:
		t.bucket.take(n)
		c.noteAdmitLocked(t, n)
		c.ctrAdmitted.Inc()
		return Admitted
	case t.degraded:
		// Degrade-don't-drop: admit the epoch in sampled form, charging
		// only the surviving share. The bucket may go into debt, which
		// simply delays the next exact admission.
		charge := n * c.cfg.DegradeRate
		t.bucket.take(charge)
		c.noteAdmitLocked(t, charge)
		c.ctrAdmitted.Inc()
		c.ctrDegraded.Inc()
		return AdmittedDegraded
	default:
		c.ctrDelayed.Inc()
		c.updateThrottleLocked()
		return Delayed
	}
}

// pressureHigh reports whether the external overload signal (when
// configured) confirms sustained pressure.
func (c *Controller) pressureHigh() bool {
	if c.cfg.Pressure == nil {
		return true
	}
	return c.cfg.Pressure() > c.cfg.PressureThreshold
}

func (c *Controller) setDegradedLocked(t *tenant, degraded bool, source uint32) {
	if t.degraded == degraded {
		return
	}
	t.degraded = degraded
	n := int64(0)
	for _, tt := range c.tenants {
		if tt.degraded {
			n++
		}
	}
	c.gDegraded.Set(n)
	if degraded {
		t.stats.Degrades++
		c.deg.Degrade(t.name, c.cfg.DegradeRate)
		obs.Emit(obs.Decision{
			Kind:        "degrade",
			Source:      source,
			Cause:       "sustained_overload",
			BeforeState: "exact",
			AfterState:  "sketch",
			Before:      []float64{1},
			After:       []float64{c.cfg.DegradeRate},
			Detail: fmt.Sprintf("tenant=%s class=%s rate=%.2f rel_err~1/sqrt(%.0f*n)",
				t.name, t.class, c.cfg.DegradeRate, c.cfg.DegradeRate),
		})
	} else {
		t.stats.Promotes++
		c.deg.Promote(t.name)
		obs.Emit(obs.Decision{
			Kind:        "promote",
			Source:      source,
			Cause:       "pressure_cleared",
			BeforeState: "sketch",
			AfterState:  "exact",
			Before:      []float64{c.cfg.DegradeRate},
			After:       []float64{1},
			Detail:      fmt.Sprintf("tenant=%s class=%s", t.name, t.class),
		})
	}
}

// DegradedRate returns the sampling rate to apply to a source's epoch (0
// when its tenant is exact).
func (c *Controller) DegradedRate(source uint32) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantOf(source)
	if !t.degraded {
		return 0
	}
	return c.cfg.DegradeRate
}

// noteAdmitLocked folds an admitted payload into the Jain fairness
// accounting and updates the gauge.
func (c *Controller) noteAdmitLocked(t *tenant, bytes float64) {
	const alpha = 0.2
	c.ctrBytes.Add(int64(bytes))
	if t.ewmaBytes == 0 {
		t.ewmaBytes = bytes
	} else {
		t.ewmaBytes += alpha * (bytes - t.ewmaBytes)
	}
	c.gJain.Set(c.jainLocked())
	c.updateThrottleLocked()
}

func (c *Controller) jainLocked() float64 {
	var sum, sumSq float64
	n := 0
	for _, t := range c.tenants {
		// Fairness is over *budget-normalized* admitted throughput: a gold
		// tenant legitimately receives twice a silver tenant's bytes.
		w := c.cfg.ClassWeight[t.class]
		if w <= 0 || t.ewmaBytes <= 0 {
			continue
		}
		x := t.ewmaBytes / w
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// JainIndex returns the current fairness index over tenants with
// admitted traffic (1.0 = perfectly fair, budget-normalized).
func (c *Controller) JainIndex() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jainLocked()
}

// NoteBacklog records that an epoch arrived while the source already
// had delayed epochs queued, so ordering forced it to park without an
// Admit decision. A standing backlog is sustained overload by
// definition, so it advances the degrade hysteresis exactly as an
// over-budget commit would — otherwise a tenant pinned behind its own
// delay queue could never cross DegradeAfter, and degrade-don't-drop
// would starve exactly when it is most needed.
func (c *Controller) NoteBacklog(source uint32, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantOf(source)
	t.bucket.refill(c.cfg.Now())
	t.overStreak++
	t.underStreak = 0
	t.lastDeficit = float64(bytes) - t.bucket.tokens
	if c.cfg.Pressure != nil {
		if c.pressureHigh() {
			t.calmStreak = 0
		} else {
			t.calmStreak++
		}
	}
	if !t.degraded && (t.class != Gold || c.cfg.GoldDegrades) &&
		t.overStreak >= c.cfg.DegradeAfter && c.pressureHigh() {
		c.setDegradedLocked(t, true, source)
	} else if t.degraded && c.cfg.Pressure != nil && t.calmStreak >= c.cfg.PromoteAfter {
		// A backlogged tenant never reaches Admit, so the calm streak is
		// its only path back to exact processing once pressure clears.
		c.setDegradedLocked(t, false, source)
	}
	c.ctrDelayed.Inc()
	c.updateThrottleLocked()
}

// NoteDelayed records that an epoch entered the delay queue.
func (c *Controller) NoteDelayed(source uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantOf(source)
	t.delayed++
	t.stats.Delayed++
	c.bumpDelayedLocked(1)
}

// NoteDrained records that a delayed epoch left the queue and applied.
func (c *Controller) NoteDrained(source uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.tenantOf(source); t.delayed > 0 {
		t.delayed--
	}
	c.bumpDelayedLocked(-1)
}

// NoteShed records that an epoch was shed (discarded without applying;
// the shipper's replay buffer re-delivers it). cause lands in the
// decision trace.
func (c *Controller) NoteShed(source uint32, seq uint64, cause string, fromQueue bool) {
	c.mu.Lock()
	t := c.tenantOf(source)
	if fromQueue {
		if t.delayed > 0 {
			t.delayed--
		}
		c.bumpDelayedLocked(-1)
	}
	t.stats.Shed++
	class := t.class
	name := t.name
	c.ctrShed.Inc()
	c.mu.Unlock()
	obs.Emit(obs.Decision{
		Kind:   "admission",
		Source: source,
		Epoch:  seq,
		Cause:  cause,
		Detail: fmt.Sprintf("tenant=%s class=%s shed", name, class),
	})
}

func (c *Controller) bumpDelayedLocked(d int64) {
	c.gDelayed.Set(c.gDelayed.Value() + d)
}

// drainCostLocked returns the bucket charge for applying a delayed
// epoch: a degraded tenant drains at the sampled cost, since the
// receiver ingests only the surviving share of its rows.
func (c *Controller) drainCostLocked(t *tenant, bytes int64) float64 {
	n := float64(bytes)
	if t.degraded {
		n *= c.cfg.DegradeRate
	}
	return n
}

// TryDrain asks whether a delayed epoch of the given size may apply now;
// on true the bytes are taken from the tenant's bucket.
func (c *Controller) TryDrain(source uint32, bytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantOf(source)
	t.bucket.refill(c.cfg.Now())
	n := c.drainCostLocked(t, bytes)
	if !t.bucket.fits(n) {
		return false
	}
	t.bucket.take(n)
	c.noteAdmitLocked(t, n)
	if t.degraded {
		c.ctrDegraded.Inc()
	}
	return true
}

// ForceDrain unconditionally charges a delayed epoch to its tenant (the
// bucket may go into debt) — used when ordering forces an apply, e.g. a
// gap escape after the shipper lost a shed epoch.
func (c *Controller) ForceDrain(source uint32, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantOf(source)
	t.bucket.refill(c.cfg.Now())
	n := c.drainCostLocked(t, bytes)
	t.bucket.take(n)
	c.noteAdmitLocked(t, n)
	if t.degraded {
		c.ctrDegraded.Inc()
	}
}

// ThrottleMicros returns the backpressure hint for a source's acks: how
// long the shipper should stretch its epoch cadence so the tenant's
// bucket catches up (0 = no throttling needed).
func (c *Controller) ThrottleMicros(source uint32) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantOf(source)
	if t.overStreak == 0 && t.delayed == 0 && t.bucket.tokens >= 0 {
		return 0
	}
	deficit := t.lastDeficit
	if t.bucket.tokens < 0 {
		deficit += -t.bucket.tokens
	}
	if t.bucket.rate <= 0 || deficit <= 0 {
		return 0
	}
	d := time.Duration(deficit / t.bucket.rate * float64(time.Second))
	if d > c.cfg.MaxThrottle {
		d = c.cfg.MaxThrottle
	}
	if d < 0 {
		d = 0
	}
	return uint64(d / time.Microsecond)
}

// ObserveCommitLatency feeds the per-class ingest latency histogram
// (EpochEnd arrival to apply, queue wait included) and refreshes the
// throttle gauge.
func (c *Controller) ObserveCommitLatency(source uint32, d time.Duration) {
	c.mu.Lock()
	cl := c.tenantOf(source).class
	c.mu.Unlock()
	c.classHist[cl].Observe(d)
}

// updateThrottleLocked refreshes the adm_throttle_micros gauge with the
// worst current per-tenant deficit.
func (c *Controller) updateThrottleLocked() {
	var worst float64
	for _, t := range c.tenants {
		if t.bucket.rate <= 0 {
			continue
		}
		deficit := t.lastDeficit
		if t.overStreak == 0 {
			deficit = 0
		}
		if t.bucket.tokens < 0 {
			deficit += -t.bucket.tokens
		}
		if s := deficit / t.bucket.rate; s > worst {
			worst = s
		}
	}
	d := time.Duration(worst * float64(time.Second))
	if d > c.cfg.MaxThrottle {
		d = c.cfg.MaxThrottle
	}
	c.gThrottle.Set(int64(d / time.Microsecond))
}

// Degraded reports whether a tenant is currently degraded to sketches.
func (c *Controller) Degraded(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenants[name]
	return t != nil && t.degraded
}

// TenantStats returns every tenant's cumulative admission activity.
func (c *Controller) TenantStats() map[string]TenantStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]TenantStats, len(c.tenants))
	for name, t := range c.tenants {
		out[name] = t.stats
	}
	return out
}

// Snapshot summarizes per-tenant admission state for status endpoints.
func (c *Controller) Snapshot() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	tenants := make(map[string]any, len(c.tenants))
	for name, t := range c.tenants {
		tenants[name] = map[string]any{
			"class":    t.class.String(),
			"tokens":   math.Round(t.bucket.tokens),
			"degraded": t.degraded,
			"delayed":  t.delayed,
			"stats":    t.stats,
		}
	}
	out := map[string]any{
		"jain_fairness": c.jainLocked(),
		"tenants":       tenants,
	}
	if c.cfg.Pressure != nil {
		out["pressure"] = map[string]any{
			"value":     c.cfg.Pressure(),
			"threshold": c.cfg.PressureThreshold,
			"high":      c.pressureHigh(),
		}
	}
	return out
}

// Package stream is Jarvis' lightweight dataflow engine: the substrate
// the paper builds with Apache MiNiFi (data source side) and NiFi (stream
// processor side). A Pipeline executes a query's operator chain with a
// control proxy in front of every operator; compute is metered by a
// token-bucket CPU budget so monitoring work stays within the fraction of
// a core the foreground services leave over (paper §II-B).
package stream

// TokenBucket meters compute within an epoch. One token is one
// core-microsecond: a pipeline with budget fraction b over an epoch of E
// microseconds may consume b·E tokens per epoch.
type TokenBucket struct {
	capacity float64
	tokens   float64
}

// NewTokenBucket creates a bucket holding capacity core-microseconds per
// epoch.
func NewTokenBucket(capacity float64) *TokenBucket {
	if capacity < 0 {
		capacity = 0
	}
	return &TokenBucket{capacity: capacity, tokens: capacity}
}

// Refill restores the bucket to full capacity (called at epoch start).
func (b *TokenBucket) Refill() { b.tokens = b.capacity }

// SetCapacity changes the per-epoch budget (resource availability shifts,
// §II-B) and clamps current tokens to the new capacity.
func (b *TokenBucket) SetCapacity(capacity float64) {
	if capacity < 0 {
		capacity = 0
	}
	b.capacity = capacity
	if b.tokens > capacity {
		b.tokens = capacity
	}
}

// Capacity returns the per-epoch token capacity.
func (b *TokenBucket) Capacity() float64 { return b.capacity }

// Tokens returns the tokens remaining in this epoch.
func (b *TokenBucket) Tokens() float64 { return b.tokens }

// FitCount returns how many records at the given per-record cost the
// remaining tokens cover, capped at limit. A non-positive cost fits any
// number of records.
func (b *TokenBucket) FitCount(cost float64, limit int) int {
	if cost <= 0 {
		return limit
	}
	n := int(b.tokens / cost)
	if n > limit {
		n = limit
	}
	// Guard float rounding so ConsumeN never overdraws.
	for n > 0 && float64(n)*cost > b.tokens {
		n--
	}
	return n
}

// ConsumeN withdraws n records' worth of tokens in one amortized charge.
// Callers size n with FitCount first.
func (b *TokenBucket) ConsumeN(cost float64, n int) {
	if cost <= 0 || n <= 0 {
		return
	}
	b.tokens -= float64(n) * cost
	if b.tokens < 0 {
		b.tokens = 0
	}
}

// Used returns the tokens consumed so far this epoch.
func (b *TokenBucket) Used() float64 { return b.capacity - b.tokens }

// SpareFraction returns the unused fraction of the epoch budget in [0,1].
func (b *TokenBucket) SpareFraction() float64 {
	if b.capacity <= 0 {
		return 0
	}
	return b.tokens / b.capacity
}

package operator

import (
	"slices"
	"strings"

	"jarvis/internal/telemetry"
)

// keyOrder is the one routine that orders a closing window's groups by
// key — Num, then Str — so flushed rows leave in the same order on every
// run. It is an LSD radix sort over Num in 8-bit digits that skips every
// digit on which all keys agree (the packed address pairs of the probe
// queries share most of their high bytes); the string comparator runs
// only inside runs of equal Num, so it sees every row of a string-keyed
// window and none of a probe query's. The scratch lives in the owning
// operator: once its largest window has been seen, ordering allocates
// nothing.
type keyOrder struct {
	ents, tmp []orderEntry
	strs      []strEntry
}

// orderEntry is one group being ordered: its Num and its position in the
// caller's key list.
type orderEntry struct {
	num uint64
	idx uint32
}

// strEntry is one group of a run of equal Num, ordered by its Str.
type strEntry struct {
	str string
	idx uint32
}

// sort orders the positions 0..n-1 by key(i) and returns them as entries
// whose idx is the position (a window's keys are distinct; equal ones come
// out adjacent). The result is scratch, valid until the next call.
func (o *keyOrder) sort(n int, key func(i int) telemetry.GroupKey) []orderEntry {
	ents := slices.Grow(o.ents[:0], n)[:n]
	for i := range ents {
		ents[i] = orderEntry{num: key(i).Num, idx: uint32(i)}
	}
	ents = o.radix(ents)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && ents[hi].num == ents[lo].num {
			hi++
		}
		if hi-lo > 1 {
			o.byStr(ents[lo:hi], key)
		}
		lo = hi
	}
	return ents
}

// byStr orders a run of equal Num by Str, comparing the strings
// themselves rather than fetching them through key per comparison.
func (o *keyOrder) byStr(run []orderEntry, key func(i int) telemetry.GroupKey) {
	strs := o.strs[:0]
	for _, e := range run {
		strs = append(strs, strEntry{str: key(int(e.idx)).Str, idx: e.idx})
	}
	slices.SortFunc(strs, func(a, b strEntry) int { return strings.Compare(a.str, b.str) })
	for i := range strs {
		run[i].idx = strs[i].idx
	}
	clear(strs) // the window's key strings die with it, not with the next close
	o.strs = strs[:0]
}

// radix sorts ents by num, least significant digit first, and returns the
// sorted slice — ents itself or the other scratch buffer, whichever the
// last pass wrote; the keyOrder keeps both.
func (o *keyOrder) radix(ents []orderEntry) []orderEntry {
	if len(ents) == 0 {
		return ents
	}
	var counts [8][256]uint32
	for _, e := range ents {
		k := e.num
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := ents, slices.Grow(o.tmp[:0], len(ents))[:len(ents)]
	for d := range counts {
		c := &counts[d]
		if int(c[byte(src[0].num>>(8*d))]) == len(src) {
			continue // every key has the same digit here
		}
		sum := uint32(0)
		for b := range c {
			c[b], sum = sum, sum+c[b]
		}
		for _, e := range src {
			b := byte(e.num >> (8 * d))
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	o.ents, o.tmp = src, dst
	return src
}

package operator

// numTable holds one window's numerically keyed groups (Key.Str == "",
// the probe queries' packed pairs). The cells sit in one dense slice in
// insertion order — what a capture walks, so equal input captures equal
// bytes — found through an open-addressed index whose slots hold a key
// and 1 + its cell's position, probed linearly from a Fibonacci hash of
// the key. Nothing is deleted; a closing window hands its table on to
// the operator's next window (reset). A cell pointer is valid until the
// next insert, which may move the slice.
type numTable struct {
	slots []numSlot
	shift uint8 // 64 − log2(len(slots)): the hash's top bits pick a slot
	cells []aggCell
	// next is the position after the last cell found or inserted: a
	// source probing its peers round-robin asks for the keys in the order
	// they were inserted, so find tries that one cell before it hashes.
	next int
}

// numSlot is one index entry; pos == 0 marks it empty.
type numSlot struct {
	key uint64
	pos uint32
}

// newNumTable returns a table with room for hint groups before it grows.
// Callers pass what they observed — the operator's last closed window,
// the rows a restore brings — so a window of its usual size never
// rehashes; zero allocates nothing until the first insert.
func newNumTable(hint int) numTable {
	var t numTable
	if hint > 0 {
		t.cells = make([]aggCell, 0, hint)
		t.resize(hint)
	}
	return t
}

// find returns key's cell, or nil and the slot insert files the key in
// (nil when the table has no index yet). Keys are unique, so the cell at
// the cursor, when it matches, is the one the index would return.
func (t *numTable) find(key uint64) (*aggCell, *numSlot) {
	if t.next < len(t.cells) && t.cells[t.next].row.Key.Num == key {
		t.next++
		return &t.cells[t.next-1], nil
	}
	if len(t.slots) == 0 {
		return nil, nil
	}
	s := t.slot(key)
	if s.pos != 0 {
		t.next = int(s.pos)
		return &t.cells[s.pos-1], nil
	}
	return nil, s
}

// insert adds a cell whose key is absent and returns it. s is the slot a
// missed find handed back, or nil to probe for one; the index doubles
// first if the insert would load it past 3/4, which also probes afresh.
func (t *numTable) insert(s *numSlot, c aggCell) *aggCell {
	if 4*(len(t.cells)+1) > 3*len(t.slots) {
		t.resize(len(t.slots))
		s = nil
	}
	if s == nil {
		s = t.slot(c.row.Key.Num)
	}
	t.cells = append(t.cells, c)
	s.key, s.pos = c.row.Key.Num, uint32(len(t.cells))
	t.next = len(t.cells)
	return &t.cells[len(t.cells)-1]
}

// reset empties the table for another window, keeping its index size and
// cell capacity.
func (t *numTable) reset() {
	clear(t.slots)
	t.cells, t.next = t.cells[:0], 0
}

// resize rebuilds the index with room for n groups, re-filing the cells
// from the dense slice.
func (t *numTable) resize(n int) {
	size, shift := indexSize(n)
	t.slots, t.shift = make([]numSlot, size), shift
	for i := range t.cells {
		s := t.slot(t.cells[i].row.Key.Num)
		s.key, s.pos = t.cells[i].row.Key.Num, uint32(i+1)
	}
}

// slot returns key's slot, or the empty slot where it would go.
func (t *numTable) slot(key uint64) *numSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (key * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.pos == 0 || s.key == key {
			return s
		}
	}
}

// indexSize is the slot count (a power of two, at least 16) of an index
// with room for n entries at a load of at most 3/4, and 64 − its log2:
// the shift that makes a Fibonacci hash's top bits pick a slot.
func indexSize(n int) (int, uint8) {
	size, shift := 16, uint8(64-4)
	for 3*size < 4*n {
		size <<= 1
		shift--
	}
	return size, shift
}

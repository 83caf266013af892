package checkpoint

import (
	"fmt"
	"sync"
)

// DefaultMaxChain bounds a base + delta chain before the next snapshot
// is forced full: longer chains shrink per-snapshot cost but lengthen
// restore (every link decodes and folds) and pin older files until
// compaction.
const DefaultMaxChain = 16

// DefaultRetain is the default snapshot retention: the newest consistent
// chains kept when the chain compacts its store (Store.SetRetention).
const DefaultRetain = 4

// Chain is the one owner of a store's base + delta policy: whether the
// next snapshot is a full base or a delta, what a delta chains onto,
// what happens after a failed save, and when the store compacts. The
// recovery managers and the HA standby ask Next before they capture and
// hand the capture to Save; they keep no chain state of their own.
//
// Next and Save may run on different goroutines (the async writer saves
// while the epoch path captures), one caller each.
type Chain struct {
	store *Store

	mu       sync.Mutex
	retain   int
	haveBase bool   // a base was captured since the last Reset
	deltas   int    // deltas captured onto that base
	lastID   uint64 // store id of the last successful save
	failed   bool   // a save failed: deltas are dropped until a base lands
}

// Next reports whether the capture about to be taken must be a full base
// — none yet (fresh store, Reset), DefaultMaxChain deltas captured since
// the last one, or a save failed — and counts it.
func (c *Chain) Next() (full bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	full = !c.haveBase || c.deltas >= DefaultMaxChain || c.failed
	if full {
		c.haveBase, c.deltas = true, 0
	} else {
		c.deltas++
	}
	return full
}

// Reset makes the next capture a base. Restores and promotions call it:
// the engine re-marked everything it absorbed as dirty, so a delta would
// chain onto state the store's history does not describe.
func (c *Chain) Reset() {
	c.mu.Lock()
	c.haveBase, c.deltas, c.lastID, c.failed = false, 0, 0, false
	c.mu.Unlock()
}

// Save writes snap as the chain's next link and returns its store id. A
// delta is stamped with the id it extends here, not at capture — with an
// async writer earlier captures may still be in flight then. A delta
// captured before a failed save was noticed is dropped (id 0, no error):
// it chains onto a snapshot that never landed, and the base Next now
// forces covers its rows. Every base compacts the store to its
// retention.
func (c *Chain) Save(snap *Snapshot) (uint64, error) {
	c.mu.Lock()
	if snap.Delta {
		if c.failed {
			c.mu.Unlock()
			return 0, nil
		}
		snap.BaseID = c.lastID
	}
	c.mu.Unlock()
	id, err := c.store.Save(snap)
	c.mu.Lock()
	// A capture already advanced the dirty generation, so the rows a lost
	// snapshot carried will never appear in a later delta: the next
	// capture must be full or the chain would silently miss them.
	c.failed = err != nil
	if err == nil {
		c.lastID = id
	}
	retain := c.retain
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if !snap.Delta {
		if err := c.store.Compact(retain); err != nil {
			return 0, fmt.Errorf("checkpoint: compact store: %w", err)
		}
	}
	return id, nil
}

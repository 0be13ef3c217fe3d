// Package cache implements the memory hierarchy of the simulated HetCore
// processor: set-associative write-back caches (IL1, DL1, L2 private per
// core; L3 shared), the AdvHet asymmetric DL1 (a CMOS "fast way" in front
// of TFET "slow ways", Section IV-C1), a directory-based MESI protocol over
// a ring interconnect (Table III: "Ring with MESI directory-based
// protocol"), and a fixed-latency DRAM.
//
// Caches are structural models: real tag arrays with LRU replacement, so
// hit rates emerge from the access stream rather than being assumed.
// Latencies are supplied by the enclosing Hierarchy configuration, because
// the same array serves CMOS and TFET variants at different round-trip
// times.
package cache

import "fmt"

// line is one cache line's tag state.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set sequence number; higher = more recently used.
	lru uint64
}

// Stats counts the activity of one cache array, consumed by the energy
// model.
type Stats struct {
	Reads       uint64 // read lookups
	Writes      uint64 // write lookups
	ReadMisses  uint64
	WriteMisses uint64
	Writebacks  uint64 // dirty evictions
	Invalidates uint64 // coherence invalidations received
}

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// HitRate returns the fraction of lookups that hit, or 1 if there were no
// lookups.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 1
	}
	return 1 - float64(s.Misses())/float64(a)
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	data     []line // sets*ways, way-major within set
	tick     uint64
	stats    Stats
}

// New builds a cache of the given total size in bytes, associativity and
// line size. Size must be a multiple of ways*lineSize and the set count a
// power of two.
func New(name string, size, ways, lineSize int) (*Cache, error) {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry (%d/%d/%d)", name, size, ways, lineSize)
	}
	if size%(ways*lineSize) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible by ways*line %d", name, size, ways*lineSize)
	}
	sets := size / (ways * lineSize)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", name, sets)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineSize)
	}
	lb := uint(0)
	for 1<<lb < lineSize {
		lb++
	}
	return &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		data:     make([]line, sets*ways),
	}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(name string, size, ways, lineSize int) *Cache {
	c, err := New(name, size, ways, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// validLines counts the lines currently holding data.
func (c *Cache) validLines() int {
	n := 0
	for i := range c.data {
		if c.data[i].valid {
			n++
		}
	}
	return n
}

// Occupancy returns the fraction of lines currently valid, in [0, 1].
// It is a state observation, not a counter: no delta against a warmup
// snapshot is needed.
func (c *Cache) Occupancy() float64 {
	return float64(c.validLines()) / float64(len(c.data))
}

// lineAddr maps a byte address to its line-granular address.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineBits }

func (c *Cache) setOf(la uint64) int { return int(la) & (c.sets - 1) }

// Result reports the outcome of a cache access.
type Result struct {
	Hit bool
	// Evicted reports that a valid line was displaced by the fill.
	Evicted bool
	// EvictedAddr is the byte address of the displaced line's first byte.
	EvictedAddr uint64
	// EvictedDirty reports that the displaced line needed writing back.
	EvictedDirty bool
}

// Access looks up addr, allocating on miss (write-allocate). A write hit
// or write fill marks the line dirty. The returned Result describes any
// eviction so the caller can propagate writebacks.
func (c *Cache) Access(addr uint64, isWrite bool) Result {
	la := c.lineAddr(addr)
	base := c.setOf(la) * c.ways
	set := c.data[base : base+c.ways]
	c.tick++
	if isWrite {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}

	// One pass finds the hit or, failing that, the victim: the first
	// invalid way, else the first way with the lowest lru.
	invalid, lru := -1, -1
	for w := range set {
		l := &set[w]
		if !l.valid {
			if invalid < 0 {
				invalid = w
			}
			continue
		}
		if l.tag == la {
			l.lru = c.tick
			if isWrite {
				l.dirty = true
			}
			return Result{Hit: true}
		}
		if lru < 0 || l.lru < set[lru].lru {
			lru = w
		}
	}

	if isWrite {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	res := Result{}
	victim := invalid
	if victim < 0 {
		victim = lru
		v := &set[victim]
		res.Evicted = true
		res.EvictedAddr = v.tag << c.lineBits
		res.EvictedDirty = v.dirty
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	set[victim] = line{tag: la, valid: true, dirty: isWrite, lru: c.tick}
	return res
}

// Probe reports whether addr is present without touching LRU state or
// counters.
func (c *Cache) Probe(addr uint64) bool {
	la := c.lineAddr(addr)
	base := c.setOf(la) * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.data[base+w]
		if l.valid && l.tag == la {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if present, returning whether it was
// present and whether it was dirty (the caller owns any writeback).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := c.lineAddr(addr)
	base := c.setOf(la) * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.data[base+w]
		if l.valid && l.tag == la {
			c.stats.Invalidates++
			present, dirty = true, l.dirty
			*l = line{}
			return
		}
	}
	return false, false
}

// CleanLine clears the dirty bit of addr's line if present (used when an
// owner is downgraded to sharer after forwarding data).
func (c *Cache) CleanLine(addr uint64) {
	la := c.lineAddr(addr)
	base := c.setOf(la) * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.data[base+w]
		if l.valid && l.tag == la {
			l.dirty = false
			return
		}
	}
}

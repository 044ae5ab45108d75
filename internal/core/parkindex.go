package core

// parkIndex is the Unit-Manager's waiting-unit index: every unit
// awaiting (re)binding lives here, ordered by (Priority desc,
// insertion seq asc) — the exact order the old pending slice produced
// under its per-pass stable sort, now maintained structurally.
//
// Entries split into two tiers. The `must` heap holds units that must
// be offered to the policy on the next pass regardless of cluster
// state: fresh arrivals (first offer decides bind / park /
// ErrUnschedulable) and units parked by policies the manager cannot
// reason about. The `classes` heaps hold units parked by a
// CapacityGated policy, keyed by core demand: a pass re-offers a class
// only when some Active pilot could actually admit that demand, which
// is what collapses the old offer amplification (every kick re-offered
// the entire parked set) to roughly one offer per bind.
//
// The aside list carries entries popped during the current pass that
// must not be re-offered within it (units the policy re-parked, units
// inserted mid-pass, capacity-skipped units that outranked an offer);
// flushAside returns them to the heaps between passes. Entries of units
// that reached a final state while parked stay until their pop drops
// them.
type parkIndex struct {
	// nextSeq stamps insertion order; entries with seq below a pass's
	// boundary belong to that pass's batch.
	nextSeq uint64
	must    parkHeap
	classes map[int]*parkHeap
	aside   []parkEntry
}

// parkEntry is one parked unit. gated records which tier it belongs to.
type parkEntry struct {
	u     *Unit
	prio  float64
	cores int
	seq   uint64
	gated bool
}

// stamp assigns the next insertion seq to e.
func (x *parkIndex) stamp(e *parkEntry) {
	e.seq = x.nextSeq
	x.nextSeq++
}

// push inserts a freshly stamped entry for u into its tier's heap.
func (x *parkIndex) push(u *Unit, gated bool) {
	e := parkEntry{u: u, prio: u.Desc.Priority, cores: u.Desc.Cores, gated: gated}
	x.stamp(&e)
	x.insert(e)
}

// insert places an already-stamped entry into its tier's heap.
func (x *parkIndex) insert(e parkEntry) {
	if !e.gated {
		x.must.push(e)
	} else {
		h := x.classes[e.cores]
		if h == nil {
			h = &parkHeap{}
			if x.classes == nil {
				x.classes = make(map[int]*parkHeap)
			}
			x.classes[e.cores] = h
		}
		h.push(e)
	}
}

// anyOfferable reports whether a pass could still offer something: a
// must entry, or a gated class some pilot could admit. It is
// deliberately conservative (entries inserted mid-pass count), so the
// pass loop pops — and defers — at most a bounded overshoot.
func (x *parkIndex) anyOfferable(admit func(cores int) bool) bool {
	if len(x.must) > 0 {
		return true
	}
	for cores, h := range x.classes {
		if len(*h) > 0 && admit(cores) {
			return true
		}
	}
	return false
}

// popBest removes and returns the globally best-ranked entry across
// both tiers: highest priority first, insertion order among equals.
// The choice is a unique total order (seqs never repeat), so map
// iteration over the classes cannot perturb determinism.
func (x *parkIndex) popBest() (parkEntry, bool) {
	var bestHeap *parkHeap
	if len(x.must) > 0 {
		bestHeap = &x.must
	}
	for cores, h := range x.classes {
		if len(*h) == 0 {
			delete(x.classes, cores)
			continue
		}
		if bestHeap == nil || parkLess((*h)[0], (*bestHeap)[0]) {
			bestHeap = h
		}
	}
	if bestHeap == nil {
		return parkEntry{}, false
	}
	return bestHeap.pop(), true
}

// setAside holds a popped entry out of the heaps until flushAside — it
// keeps its stamp and cannot be re-offered within the current pass.
func (x *parkIndex) setAside(e parkEntry) {
	x.aside = append(x.aside, e)
}

// flushAside returns every aside entry to the heaps, between passes.
func (x *parkIndex) flushAside() {
	for _, e := range x.aside {
		x.insert(e)
	}
	x.aside = x.aside[:0]
}

// forEachUnit visits every parked unit (heaps and aside) in no
// particular order; callers must only accumulate commutatively.
func (x *parkIndex) forEachUnit(fn func(*Unit)) {
	for _, e := range x.must {
		fn(e.u)
	}
	for _, h := range x.classes {
		for _, e := range *h {
			fn(e.u)
		}
	}
	for _, e := range x.aside {
		fn(e.u)
	}
}

// parkHeap is a binary heap of parkEntry ordered by parkLess.
type parkHeap []parkEntry

// parkLess orders bind candidates: higher priority first, then
// insertion order — the total order the old per-pass stable sort
// established.
func parkLess(a, b parkEntry) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

func (h *parkHeap) push(e parkEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !parkLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *parkHeap) pop() parkEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = parkEntry{}
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && parkLess(s[l], s[small]) {
			small = l
		}
		if r < len(s) && parkLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

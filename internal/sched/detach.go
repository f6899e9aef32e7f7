package sched

import "dlfuzz/internal/object"

// detacher copies the objects a Result names out of the run's object
// arena, which the shell zeroes and reuses once the run ends (see
// object.Allocator.Reset), so a Result never points into it. Each
// object is copied with its whole Creator chain and its execution
// index. Ids stay the same, and two references to one object share one
// copy. Usage: add every reference, copy, map each reference through
// of, then done. The scheduler keeps one detacher for its scratch.
type detacher struct {
	// orig lists the distinct objects added, creators included, and
	// copies holds their copies in the same order. A Result names a
	// handful of objects, so lookups scan orig.
	orig   []*object.Obj
	copies []object.Obj
	nents  int // index entries of orig, summed
}

// add records o and its creator chain for copying.
func (d *detacher) add(o *object.Obj) {
	for ; o != nil && d.find(o) < 0; o = o.Creator {
		d.orig = append(d.orig, o)
		d.nents += len(o.Index)
	}
}

// find returns o's position in orig, or -1.
func (d *detacher) find(o *object.Obj) int {
	for i, x := range d.orig {
		if x == o {
			return i
		}
	}
	return -1
}

// copy copies every added object: the objects in one allocation, their
// indexes, capacity-capped, in another.
func (d *detacher) copy() {
	d.copies = make([]object.Obj, len(d.orig))
	ents := make([]object.IndexEntry, d.nents)
	for i, o := range d.orig {
		c := &d.copies[i]
		*c = *o
		c.Index = nil
		if n := len(o.Index); n > 0 {
			c.Index = ents[:n:n]
			copy(c.Index, o.Index)
			ents = ents[n:]
		}
		if o.Creator != nil {
			c.Creator = &d.copies[d.find(o.Creator)]
		}
	}
}

// of returns the copy of an added object; nil stays nil.
func (d *detacher) of(o *object.Obj) *object.Obj {
	if o == nil {
		return nil
	}
	return &d.copies[d.find(o)]
}

// done drops the detacher's references, keeping orig's capacity.
func (d *detacher) done() {
	clear(d.orig)
	d.orig = d.orig[:0]
	d.copies = nil
	d.nents = 0
}

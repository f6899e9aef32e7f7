package fuzzer

import "dlfuzz/internal/object"

// absCache memoizes object-abstraction keys for the Runner's
// deadlock-key renders. A multi-cycle campaign renders the same few
// thread and lock abstractions run after run, so recomputing them
// dominated the key renders' allocation profile.
//
// Two layers make the steady state allocation-free:
//
//   - byObj maps this run's objects straight to their key; it is cleared
//     on reset because object pointers are only meaningful within a run.
//   - intern persists across runs and canonicalizes key bytes: the key is
//     rebuilt into a reused buffer and looked up via the map[string]
//     no-copy conversion, so a key ever seen before costs zero
//     allocations, and campaigns over the same program converge on one
//     shared string per abstract object.
type absCache struct {
	byObj  map[*object.Obj]object.Key
	intern map[string]object.Key
	buf    []byte
}

// of returns a.Of(o, k), memoized. Correctness does not depend on (a, k)
// staying fixed between resets: byObj never outlives a run, and intern
// maps rendered bytes — a pure function of (a, o, k) — to their canonical
// string.
func (c *absCache) of(a object.Abstraction, o *object.Obj, k int) object.Key {
	if o == nil {
		return ""
	}
	if key, ok := c.byObj[o]; ok {
		return key
	}
	if c.byObj == nil {
		c.byObj = make(map[*object.Obj]object.Key)
		c.intern = make(map[string]object.Key)
	}
	c.buf = a.AppendOf(c.buf[:0], o, k)
	key, ok := c.intern[string(c.buf)]
	if !ok {
		key = object.Key(c.buf)
		c.intern[string(key)] = key
	}
	c.byObj[o] = key
	return key
}

// appendOf appends a.Of(o, k) to dst: through the cache when c is
// non-nil, directly otherwise.
func (c *absCache) appendOf(dst []byte, a object.Abstraction, o *object.Obj, k int) []byte {
	if c == nil {
		return a.AppendOf(dst, o, k)
	}
	return append(dst, c.of(a, o, k)...)
}

// reset drops the per-run object mapping, keeping the intern table and
// map capacity.
func (c *absCache) reset() { clear(c.byObj) }

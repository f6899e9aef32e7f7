package object

// Chunk sizes of an Allocator's arena, in slots. A chunk list starts
// small and doubles up to the last size, so a run whose chunks are
// handed off (see Allocator.Reset) wastes at most about half of what it
// allocated, while a kept list reaches full-size chunks after a few runs.
const (
	objChunkFirst = 16
	objChunkLast  = 256
	entChunkFirst = 32
	entChunkLast  = 1024
	// keptChunks caps how many chunks of each kind an Allocator keeps
	// across executions; a run that needed more drops the excess.
	keptChunks = 16
)

// chunks hands out slots of T from a list of fixed-size chunks. The
// slots one execution takes are list[:used]'s, cur being the one it
// fills; list[used:] are kept chunks no slot of which is in use.
type chunks[T any] struct {
	cur  []T
	list [][]T
	used int
}

// take returns n consecutive slots as a capacity-capped slice, so an
// append through it cannot reach a neighbour's slots. A request larger
// than the chunk it would start gets an exact-size slice of its own.
func (c *chunks[T]) take(n, first, last int) []T {
	if len(c.cur)+n > cap(c.cur) && !c.advance(n, first, last) {
		return make([]T, n)
	}
	lo := len(c.cur)
	c.cur = c.cur[:lo+n]
	return c.cur[lo : lo+n : lo+n]
}

// advance moves cur to the next chunk — a kept one, or a new one twice
// the size of the last, between first and last — and reports whether
// it holds n slots. When it does not, cur stays where it was.
func (c *chunks[T]) advance(n, first, last int) bool {
	size := first
	if c.used < len(c.list) {
		size = cap(c.list[c.used])
	} else if len(c.list) > 0 {
		size = min(max(first, 2*cap(c.list[len(c.list)-1])), last)
	}
	if n > size {
		return false
	}
	if c.used > 0 {
		c.list[c.used-1] = c.cur
	}
	if c.used == len(c.list) {
		c.list = append(c.list, make([]T, 0, size))
	}
	c.cur = c.list[c.used]
	c.used++
	return true
}

// rewind zeroes every slot taken since the last rewind or release and
// makes all chunks free again, keeping at most keptChunks of them.
func (c *chunks[T]) rewind() {
	if c.used > 0 {
		c.list[c.used-1] = c.cur
	}
	for i, ch := range c.list[:c.used] {
		clear(ch)
		c.list[i] = ch[:0]
	}
	if len(c.list) > keptChunks {
		clear(c.list[keptChunks:])
		c.list = c.list[:keptChunks]
	}
	c.cur, c.used = nil, 0
}

// release hands the chunks holding taken slots off to whoever points
// into them: the list keeps only the chunks no slot of which was taken.
func (c *chunks[T]) release() {
	n := copy(c.list, c.list[c.used:])
	clear(c.list[n:])
	c.list = c.list[:n]
	c.cur, c.used = nil, 0
}

package object

import (
	"fmt"
	"testing"
	"testing/quick"

	"dlfuzz/internal/event"
)

func TestAllocatorIDsAreSequential(t *testing.T) {
	var a Allocator
	o1 := a.New("T", "s:1", nil, nil)
	o2 := a.New("T", "s:1", nil, nil)
	if o1.ID != 1 || o2.ID != 2 || a.Count() != 2 {
		t.Errorf("ids %d,%d count %d", o1.ID, o2.ID, a.Count())
	}
}

func TestTrivialAbstraction(t *testing.T) {
	var a Allocator
	o1 := a.New("A", "s:1", nil, nil)
	o2 := a.New("B", "s:2", nil, nil)
	if Trivial.Of(o1, 5) != Trivial.Of(o2, 5) {
		t.Error("trivial abstraction must identify all objects")
	}
	if Trivial.Of(nil, 5) != "" {
		t.Error("nil object must map to the empty key")
	}
}

func TestKObjectChain(t *testing.T) {
	var a Allocator
	factory := a.New("Factory", "f:1", nil, nil)
	child := a.New("Child", "c:2", factory, nil)
	grand := a.New("Grand", "g:3", child, nil)

	if got := KObject.Of(grand, 1); got != "g:3" {
		t.Errorf("absO_1 = %q", got)
	}
	if got := KObject.Of(grand, 2); got != "g:3<-c:2" {
		t.Errorf("absO_2 = %q", got)
	}
	if got := KObject.Of(grand, 10); got != "g:3<-c:2<-f:1" {
		t.Errorf("absO_10 (short chain) = %q", got)
	}
	// Static allocation: no creator, single element regardless of k.
	if got := KObject.Of(factory, 4); got != "f:1" {
		t.Errorf("absO of static alloc = %q", got)
	}
}

func TestKObjectCollidesOnSameChain(t *testing.T) {
	var a Allocator
	factory := a.New("Factory", "f:1", nil, nil)
	o1 := a.New("Child", "c:2", factory, nil)
	o2 := a.New("Child", "c:2", factory, nil)
	if KObject.Of(o1, 5) != KObject.Of(o2, 5) {
		t.Error("same allocation chain must collide under k-object")
	}
}

func TestExecIndexTruncatesToK(t *testing.T) {
	var a Allocator
	idx := []IndexEntry{{"a:1", 2}, {"b:2", 1}, {"c:3", 4}}
	o := a.New("T", "a:1", nil, idx)
	if got := ExecIndex.Of(o, 2); got != "[a:1,2,b:2,1]" {
		t.Errorf("absI_2 = %q", got)
	}
	if got := ExecIndex.Of(o, 10); got != "[a:1,2,b:2,1,c:3,4]" {
		t.Errorf("absI_10 = %q", got)
	}
}

func TestIndexerPaperExample(t *testing.T) {
	// The paper's Section 2.4.2 example:
	//   main calls foo 5 times; foo calls bar twice; bar allocates in a
	//   3-iteration loop. The first object of the run has index
	//   [11,1, 6,1, 3,1]; the last has [11,3, 7,1, 3,5].
	x := NewIndexer()
	var a Allocator
	var first, last []IndexEntry
	for i := 0; i < 5; i++ {
		x.Call("3") // main calls foo at line 3
		for _, callSite := range []event.Loc{"6", "7"} {
			x.Call(callSite)
			for j := 0; j < 3; j++ {
				snap := x.Snapshot("11", &a)
				if first == nil {
					first = snap
				}
				last = snap
			}
			x.Return()
		}
		x.Return()
	}
	wantFirst := []IndexEntry{{"11", 1}, {"6", 1}, {"3", 1}}
	wantLast := []IndexEntry{{"11", 3}, {"7", 1}, {"3", 5}}
	check := func(name string, got, want []IndexEntry) {
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	check("first", first, wantFirst)
	check("last", last, wantLast)
}

func TestIndexerFreshFrameCounters(t *testing.T) {
	// Counters are per calling context: a callee's counters reset on
	// every call, so the same inner allocation site restarts at 1.
	x := NewIndexer()
	var a Allocator
	x.Call("call:1")
	s1 := x.Snapshot("alloc:9", &a)
	x.Return()
	x.Call("call:1")
	s2 := x.Snapshot("alloc:9", &a)
	x.Return()
	if s1[0].Count != 1 || s2[0].Count != 1 {
		t.Errorf("inner counters should reset per frame: %v vs %v", s1, s2)
	}
	// But the call-site counter at the caller's depth advances.
	if s1[1].Count != 1 || s2[1].Count != 2 {
		t.Errorf("call-site counters should advance: %v vs %v", s1, s2)
	}
}

func TestIndexerReturnAtDepthZero(t *testing.T) {
	x := NewIndexer()
	x.Return() // must not panic
	if x.Depth() != 0 {
		t.Errorf("depth = %d", x.Depth())
	}
}

func TestIndexerSnapshotIsFresh(t *testing.T) {
	x := NewIndexer()
	var a Allocator
	x.Call("c:1")
	s1 := x.Snapshot("a:2", &a)
	s2 := x.Snapshot("a:2", &a)
	if &s1[0] == &s2[0] {
		t.Error("snapshots must not share slots")
	}
	if cap(s1) != len(s1) {
		t.Errorf("snapshot capacity %d, want its length %d: an append would reach the next snapshot", cap(s1), len(s1))
	}
	if s1[0].Count == s2[0].Count {
		t.Errorf("repeated allocations at one site must differ: %v vs %v", s1, s2)
	}
}

func TestAbstractionString(t *testing.T) {
	if Trivial.String() != "trivial" || KObject.String() != "k-object" || ExecIndex.String() != "exec-index" {
		t.Errorf("names: %v %v %v", Trivial, KObject, ExecIndex)
	}
}

// Property: abstraction keys respect the abstraction contract — two
// calls on the same object always agree, and the exec-index key is
// injective over distinct snapshots (distinct (loc,count) sequences).
func TestExecIndexInjectiveProperty(t *testing.T) {
	type flatIdx []uint8 // pairs of (site mod 4, count mod 4)
	toIndex := func(f flatIdx) []IndexEntry {
		out := make([]IndexEntry, 0, len(f)/2)
		for i := 0; i+1 < len(f); i += 2 {
			out = append(out, IndexEntry{
				Loc:   event.Loc([]string{"a", "b", "c", "d"}[f[i]%4]),
				Count: int(f[i+1]%4) + 1,
			})
		}
		return out
	}
	var a Allocator
	prop := func(x, y flatIdx) bool {
		ox := a.New("T", "s", nil, toIndex(x))
		oy := a.New("T", "s", nil, toIndex(y))
		kx := ExecIndex.Of(ox, 100)
		ky := ExecIndex.Of(oy, 100)
		same := len(toIndex(x)) == len(toIndex(y))
		if same {
			ix, iy := toIndex(x), toIndex(y)
			for i := range ix {
				if ix[i] != iy[i] {
					same = false
					break
				}
			}
		}
		return (kx == ky) == same
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestObjStringMatchesSprintf pins String's bytes to the fmt rendering
// it replaced.
func TestObjStringMatchesSprintf(t *testing.T) {
	for _, o := range []*Obj{
		{},
		{ID: 3, Type: "MyThread", Site: "fig1:25"},
		{ID: 1<<64 - 1, Type: "", Site: "a:b@c"},
		{ID: 42, Type: "héllo\"<>", Site: "\x00"},
	} {
		want := fmt.Sprintf("o%d:%s@%s", o.ID, o.Type, o.Site)
		if got := o.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if got := (*Obj)(nil).String(); got != "o?" {
		t.Errorf("nil String() = %q, want o?", got)
	}
}

// mint allocates n objects at nesting depth d, each created by the
// previous one, with a d+1-entry index, and returns them.
func mint(a *Allocator, n, d int) []*Obj {
	x := NewIndexer()
	for i := range d {
		x.Call(event.Loc(fmt.Sprintf("call:%d", i)))
	}
	var out []*Obj
	var creator *Obj
	for range n {
		creator = a.New("T", "new:1", creator, x.Snapshot("new:1", a))
		out = append(out, creator)
	}
	return out
}

// TestAllocatorRewindZeroes: an unpublished Reset zeroes every object
// and index slot it handed out, so a stale pointer reads o0, and the
// next execution mints the same ids into the same slots.
func TestAllocatorRewindZeroes(t *testing.T) {
	var a Allocator
	first := mint(&a, 600, 3)
	idx := first[599].Index
	a.Reset(false)
	for i, o := range first {
		if o.ID != 0 || o.Type != "" || o.Site != "" || o.Creator != nil || o.Index != nil {
			t.Fatalf("object %d after rewind: %+v, want the zero Obj", i, *o)
		}
	}
	if idx[:cap(idx)][0] != (IndexEntry{}) {
		t.Fatalf("index slot after rewind: %+v, want zero", idx[0])
	}
	second := mint(&a, 600, 3)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("object %d moved to a new slot after rewind", i)
		}
		if second[i].ID != uint64(i+1) {
			t.Fatalf("object %d has id %d after rewind", i, second[i].ID)
		}
	}
}

// TestAllocatorReleaseKeepsObjects: a published Reset leaves every
// object and index as it was, and the next execution's objects take
// other slots.
func TestAllocatorReleaseKeepsObjects(t *testing.T) {
	var a Allocator
	first := mint(&a, 300, 2)
	want := make([]string, len(first))
	for i, o := range first {
		want[i] = o.String() + " " + string(ExecIndex.Of(o, 10)) + " " + string(KObject.Of(o, 10))
	}
	a.Reset(true)
	second := mint(&a, 300, 4)
	for i, o := range first {
		if got := o.String() + " " + string(ExecIndex.Of(o, 10)) + " " + string(KObject.Of(o, 10)); got != want[i] {
			t.Fatalf("published object %d now reads %q, want %q", i, got, want[i])
		}
		if o == second[i] {
			t.Fatalf("object %d's slot was reused after a publishing reset", i)
		}
	}
}

// TestAllocatorKeepsBoundedChunks: an execution needing more than
// keptChunks chunks drops the excess at rewind, and a snapshot deeper
// than a chunk gets its own exact-size slice.
func TestAllocatorKeepsBoundedChunks(t *testing.T) {
	var a Allocator
	mint(&a, keptChunks*objChunkLast+1, 0)
	a.Reset(false)
	if n := len(a.objs.list); n != keptChunks {
		t.Fatalf("allocator keeps %d object chunks, want %d", n, keptChunks)
	}
	deep := mint(&a, 1, entChunkLast+5)[0]
	if len(deep.Index) != entChunkLast+6 || cap(deep.Index) != len(deep.Index) {
		t.Fatalf("deep snapshot has len %d cap %d, want both %d", len(deep.Index), cap(deep.Index), entChunkLast+6)
	}
	if got := a.Index(IndexEntry{"main", 1}); len(got) != 1 || cap(got) != 1 || got[0] != (IndexEntry{"main", 1}) {
		t.Fatalf("Index = %v (cap %d)", got, cap(got))
	}
}

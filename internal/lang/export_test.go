package lang

// TreeWalkMain and TreeWalkRun expose the tree-walking reference back
// end (treewalk_test.go) to the external lang_test differentials: they
// are Interp.Main and Interp.Run with the walker in place of the VM.
var (
	TreeWalkMain = treeWalkMain
	TreeWalkRun  = treeWalkRun
)

// InterleavedUnwinds are the sources of TestVMUnwindParity's cases that
// fail while other threads are runnable; FuzzInterp seeds from them.
func InterleavedUnwinds() []string {
	var srcs []string
	for _, c := range interleavedUnwinds {
		srcs = append(srcs, c.src)
	}
	return srcs
}

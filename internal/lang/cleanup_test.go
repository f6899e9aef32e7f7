//go:build go1.24

package lang

// This file uses runtime.AddCleanup (Go 1.24), newer than go.mod's Go
// version; the module needs a Go 1.24 toolchain anyway
// (internal/sched/coro.go).

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dlfuzz/internal/sched"
)

// TestBodyDropsAST shows a program body keeps only the compiled
// program: once the Program is dropped, its AST is collected while the
// body still runs, and runs the same as before.
func TestBodyDropsAST(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "philosophers.clf"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Parse("philosophers.clf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan string, 2)
	runtime.AddCleanup(prog, func(what string) { collected <- what }, "Program")
	runtime.AddCleanup(prog.Funcs[0], func(what string) { collected <- what }, "FuncDecl")
	body := NewInterp(prog, nil).Main()
	before := sched.New(sched.Options{Seed: 3}).Run(body)
	prog = nil

	deadline := time.Now().Add(10 * time.Second)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d of 2 AST cleanups ran: the body keeps the AST reachable", got)
			}
		}
	}
	after := sched.New(sched.Options{Seed: 3}).Run(body)
	if !reflect.DeepEqual(after, before) {
		t.Errorf("the body ran differently after the AST was collected:\n%+v\n%+v", after, before)
	}
}

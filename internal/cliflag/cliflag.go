// Package cliflag holds the flag handling the dlfuzz commands share.
package cliflag

import (
	"flag"
	"fmt"
)

// budgetFlags are the integer flags that size or bound work. A negative
// value means nothing for any of them, so it is a usage error rather
// than a silent no-op (or, for -k, a crash in the abstraction).
var budgetFlags = []string{"runs", "p1-runs", "stop-after", "max-steps", "max-cycle-len", "k"}

// Parse parses args into fs and then rejects a negative value for every
// budget flag fs defines, reporting it in one line on fs's output. A
// non-nil error is a usage error (exit status 2); parse errors have
// already been reported by the flag package.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, name := range budgetFlags {
		f := fs.Lookup(name)
		if f == nil {
			continue
		}
		if n, ok := f.Value.(flag.Getter).Get().(int); ok && n < 0 {
			err := fmt.Errorf("-%s must not be negative (got %d)", name, n)
			fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
			return err
		}
	}
	return nil
}

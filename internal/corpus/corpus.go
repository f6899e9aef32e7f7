package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"dlfuzz/internal/analysis"
	"dlfuzz/internal/campaign"
	"dlfuzz/internal/fuzzer"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/lang/gen"
	"dlfuzz/internal/object"
	"dlfuzz/internal/predict"
)

// ManifestName is the manifest file name within a corpus directory.
const ManifestName = "manifest.json"

// AnalysisName is the neutral file name every analysis parse uses.
// Canonical cycle keys embed "file:line" labels; parsing every program —
// generated, minimized, or re-loaded from disk — under one fixed name
// keeps keys comparable across programs and stable across renames.
const AnalysisName = "gen.clf"

// FindSpec pins the Phase I observation a corpus is keyed by. The same
// spec is used when harvesting, when re-checking minimization candidates,
// and when re-validating the committed corpus, so "the cycle keys
// survive" means the same thing everywhere.
type FindSpec struct {
	// Runs is the observation campaign size (default 4).
	Runs int
	// Seed is the base scheduler seed (default 1).
	Seed int64
	// K is the abstraction depth for exec-index abstraction (default 10).
	K int
	// MaxSteps bounds each execution (default 200000).
	MaxSteps int
}

// WithDefaults fills zero fields with the corpus defaults.
func (s FindSpec) WithDefaults() FindSpec {
	if s.Runs <= 0 {
		s.Runs = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.K == 0 {
		s.K = 10
	}
	if s.MaxSteps == 0 {
		s.MaxSteps = 200000
	}
	return s
}

// Entry describes one minimized corpus program.
type Entry struct {
	// File is the program's file name within the corpus directory.
	File string `json:"file"`
	// Seed is the generator seed the program came from.
	Seed int64 `json:"seed"`
	// Keys are the exact canonical cycle keys this entry contributed
	// (one per new shape); minimization preserves every one of them.
	Keys []string `json:"keys"`
	// ShapeKeys are the line-masked forms of Keys, the dedup identities
	// that made this program worth keeping.
	ShapeKeys []string `json:"shapeKeys"`
	// Confirmed records, per key, whether a Phase II campaign confirmed
	// the cycle as a real deadlock (all false when confirmation was
	// skipped).
	Confirmed []bool `json:"confirmed"`
	// Removed is the number of source lines minimization blanked.
	Removed int `json:"removed"`
}

// Manifest records how a corpus was harvested and what it contains.
type Manifest struct {
	Version int        `json:"version"`
	Gen     gen.Config `json:"gen"`
	Find    FindSpec   `json:"find"`
	// ConfirmRuns is the Phase II campaign size per kept cycle (0 means
	// confirmation was skipped).
	ConfirmRuns int `json:"confirmRuns"`
	// Seeds and Start describe the generator seed range scanned.
	Seeds int   `json:"seeds"`
	Start int64 `json:"start"`
	// DistinctShapeKeys counts the distinct cycle shapes seen across the
	// whole campaign (kept entries contribute all of them by
	// construction).
	DistinctShapeKeys int     `json:"distinctShapeKeys"`
	Entries           []Entry `json:"entries"`
}

// Keys returns the union of all entries' exact cycle keys.
func (m *Manifest) Keys() []string {
	var out []string
	for _, e := range m.Entries {
		out = append(out, e.Keys...)
	}
	sort.Strings(out)
	return out
}

// ConfirmedCount returns how many manifest keys are Phase II confirmed.
func (m *Manifest) ConfirmedCount() int {
	n := 0
	for _, e := range m.Entries {
		for _, c := range e.Confirmed {
			if c {
				n++
			}
		}
	}
	return n
}

// lineRe matches a statement label's line number inside a canonical key.
var lineRe = regexp.MustCompile(`\.clf:\d+`)

// ShapeKey masks the line numbers in a canonical cycle key, leaving its
// structure: cycle length, per-component thread/lock abstraction shapes,
// and context depths. Exact keys are near-unique across seeds (they
// embed line numbers); shape keys collapse cycles that differ only in
// statement placement, which is the dedup a cross-program corpus needs.
func ShapeKey(key string) string {
	return lineRe.ReplaceAllString(key, ".clf:#")
}

// Observe parses src under AnalysisName and runs the Phase I observation
// campaign described by spec, serially on the calling goroutine. CLF
// runtime errors (possible in minimization candidates that orphan field
// initialization) are recovered and returned as errors.
func Observe(src string, spec FindSpec) (*analysis.CampaignObservation, error) {
	prog, err := lang.Parse(AnalysisName, src)
	if err != nil {
		return nil, err
	}
	return observeProgram(prog, spec)
}

// observeProgram is Observe for an already-parsed program. Callers that
// also run Phase II (confirm) go through here so one parse — and one
// cached bytecode compilation — serves both phases.
func observeProgram(prog *lang.Program, spec FindSpec) (co *analysis.CampaignObservation, err error) {
	spec = spec.WithDefaults()
	defer func() {
		if r := recover(); r != nil {
			rt, ok := r.(*lang.RuntimeError)
			if !ok {
				panic(r)
			}
			co, err = nil, rt
		}
	}()
	return observeAt(prog, spec, 1)
}

// observeAt runs the spec's campaign at an explicit parallelism width.
// Callers above width 1 must pass programs known to be runtime-error
// free: a panic on a campaign worker goroutine cannot be recovered here.
func observeAt(prog *lang.Program, spec FindSpec, width int) (*analysis.CampaignObservation, error) {
	body := lang.NewInterp(prog, nil).Main()
	return analysis.ObserveMany(body,
		predict.Config{Abstraction: object.ExecIndex, K: spec.K},
		analysis.CampaignOptions{
			Runs:               spec.Runs,
			Parallelism:        width,
			ClosureParallelism: width,
			Seed:               spec.Seed,
			MaxSteps:           spec.MaxSteps,
		})
}

// keysOf returns the set of canonical cycle keys in an observation.
func keysOf(co *analysis.CampaignObservation) map[string]bool {
	out := make(map[string]bool, len(co.Cycles))
	for _, c := range co.Cycles {
		out[c.Key()] = true
	}
	return out
}

// HarvestOptions configures one corpus harvest.
type HarvestOptions struct {
	// Dir is the corpus directory (created if missing).
	Dir string
	// Seeds is the number of generator seeds to scan (default 200),
	// starting at Start (default 1).
	Seeds int
	Start int64
	// Gen is the generator configuration (default gen.Medium()).
	Gen gen.Config
	// Find pins the observation campaign (see FindSpec defaults).
	Find FindSpec
	// ConfirmRuns sizes the Phase II confirmation campaign per kept
	// cycle; 0 skips confirmation.
	ConfirmRuns int
	// MaxPrograms caps the number of kept programs (0 = no cap).
	MaxPrograms int
	// MinimizeBudget caps observation checks per minimized program
	// (default 400).
	MinimizeBudget int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Harvest scans generator seeds in order, keeps every program whose
// observation contributes a cycle shape not seen earlier in the scan,
// minimizes the kept programs, optionally confirms their cycles with
// Phase II, and writes the programs plus ManifestName into opts.Dir.
// Stale gen-*.clf files from earlier harvests are removed, so harvesting
// with the same options is idempotent: same files, same manifest bytes.
func Harvest(opts HarvestOptions) (*Manifest, error) {
	cfg := opts.Gen
	if cfg.Preset == "" {
		cfg = gen.Medium()
	}
	spec := opts.Find.WithDefaults()
	if opts.Seeds <= 0 {
		opts.Seeds = 200
	}
	if opts.Start == 0 {
		opts.Start = 1
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}

	m := &Manifest{
		Version:     1,
		Gen:         cfg,
		Find:        spec,
		ConfirmRuns: opts.ConfirmRuns,
		Seeds:       opts.Seeds,
		Start:       opts.Start,
	}
	seenShapes := map[string]bool{}
	for i := 0; i < opts.Seeds; i++ {
		if opts.MaxPrograms > 0 && len(m.Entries) >= opts.MaxPrograms {
			logf("cap of %d programs reached after %d seeds; %d seeds unscanned",
				opts.MaxPrograms, i, opts.Seeds-i)
			break
		}
		seed := opts.Start + int64(i)
		src := gen.Generate(seed, cfg)
		co, err := Observe(src, spec)
		if err != nil {
			logf("seed %d: skipped (%v)", seed, err)
			continue
		}
		var keep, shapes []string
		for _, c := range co.Cycles {
			sk := ShapeKey(c.Key())
			if seenShapes[sk] {
				continue
			}
			seenShapes[sk] = true
			keep = append(keep, c.Key())
			shapes = append(shapes, sk)
		}
		if len(keep) == 0 {
			continue
		}
		minimized, removed := Minimize(src, keep, spec, opts.MinimizeBudget)
		confirmed := make([]bool, len(keep))
		if opts.ConfirmRuns > 0 {
			confirmed = confirm(minimized, keep, spec, opts.ConfirmRuns)
		}
		file := gen.FileName(seed)
		if err := os.WriteFile(filepath.Join(opts.Dir, file), []byte(minimized), 0o644); err != nil {
			return nil, err
		}
		m.Entries = append(m.Entries, Entry{
			File:      file,
			Seed:      seed,
			Keys:      keep,
			ShapeKeys: shapes,
			Confirmed: confirmed,
			Removed:   removed,
		})
		logf("seed %d: kept %s (%d new shapes, %d lines blanked)", seed, file, len(keep), removed)
	}
	m.DistinctShapeKeys = len(seenShapes)

	if err := writeManifest(opts.Dir, m); err != nil {
		return nil, err
	}
	if err := removeStale(opts.Dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// confirm runs one Phase II multi-cycle campaign against the kept cycles
// of a minimized program and reports which keys it confirmed. Each key
// receives `runs` targeted executions; any worker panic (impossible for
// well-formed corpus programs, cheap to guard against) yields all-false.
func confirm(src string, keys []string, spec FindSpec, runs int) (out []bool) {
	out = make([]bool, len(keys))
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*lang.RuntimeError); !ok {
				panic(r)
			}
		}
	}()
	prog, err := lang.Parse(AnalysisName, src)
	if err != nil {
		return out
	}
	co, err := observeProgram(prog, spec)
	if err != nil {
		return out
	}
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	var targets []*igoodlock.Cycle
	var at []int
	for _, c := range co.Cycles {
		if i, ok := idx[c.Key()]; ok {
			targets = append(targets, c)
			at = append(at, i)
		}
	}
	if len(targets) == 0 {
		return out
	}
	body := lang.NewInterp(prog, nil).Main()
	fc := fuzzer.Config{Abstraction: object.ExecIndex, K: spec.K, UseContext: true, YieldOpt: true}
	sum := campaign.ConfirmCycles(body, targets, fc, runs*len(targets), spec.MaxSteps,
		campaign.Options{Parallelism: 1})
	for j := range targets {
		out[at[j]] = sum.Cycles[j].Confirmed()
	}
	return out
}

// writeManifest marshals m deterministically into dir.
func writeManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644)
}

// removeStale deletes gen-*.clf files in dir that the manifest does not
// reference (leftovers from a previous, differently-sized harvest).
func removeStale(dir string, m *Manifest) error {
	live := make(map[string]bool, len(m.Entries))
	for _, e := range m.Entries {
		live[e.File] = true
	}
	names, err := filepath.Glob(filepath.Join(dir, "gen-*.clf"))
	if err != nil {
		return err
	}
	for _, n := range names {
		if !live[filepath.Base(n)] {
			if err := os.Remove(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads a corpus manifest from dir.
func Load(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return decodeManifest(dir, data)
}

// decodeManifest parses the manifest bytes read from dir. Every entry
// must name a file directly inside dir, since Validate and the bakeoff
// read each entry's program from filepath.Join(dir, e.File).
func decodeManifest(dir string, data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("corpus: bad manifest in %s: %w", dir, err)
	}
	for _, e := range m.Entries {
		// Base leaves a lone separator as is, so "/" needs its own check.
		if e.File != filepath.Base(e.File) || e.File == "." || e.File == ".." || e.File == string(filepath.Separator) {
			return nil, fmt.Errorf("corpus: bad manifest in %s: entry %q is not a file name in the corpus directory", dir, e.File)
		}
	}
	return m, nil
}

// Validate re-checks a committed corpus: the manifest and the gen-*.clf
// files must agree, every program must parse and resolve, a fresh
// observation under the manifest's find spec must still report every
// manifest key, and serial vs parallel Phase I must produce
// byte-identical campaign reports at widths 1, 2, and 4. Returns the
// manifest on success.
func Validate(dir string) (*Manifest, error) {
	m, err := Load(dir)
	if err != nil {
		return nil, err
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "gen-*.clf"))
	if err != nil {
		return nil, err
	}
	disk := make(map[string]bool, len(onDisk))
	for _, n := range onDisk {
		disk[filepath.Base(n)] = true
	}
	for _, e := range m.Entries {
		if !disk[e.File] {
			return nil, fmt.Errorf("corpus: manifest entry %s missing from %s", e.File, dir)
		}
		delete(disk, e.File)
	}
	for n := range disk {
		return nil, fmt.Errorf("corpus: %s not referenced by the manifest", n)
	}
	for _, e := range m.Entries {
		if err := validateEntry(dir, m, e); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// validateEntry re-checks one corpus program.
func validateEntry(dir string, m *Manifest, e Entry) error {
	data, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		return err
	}
	prog, err := lang.Parse(AnalysisName, string(data))
	if err != nil {
		return fmt.Errorf("corpus: %s no longer parses: %w", e.File, err)
	}
	var reports []string
	for _, width := range []int{1, 2, 4} {
		co, err := observeAt(prog, m.Find, width)
		if err != nil {
			return fmt.Errorf("corpus: %s: observation at width %d: %w", e.File, width, err)
		}
		reports = append(reports, RenderCampaign(co))
		if width == 1 {
			have := keysOf(co)
			for _, k := range e.Keys {
				if !have[k] {
					return fmt.Errorf("corpus: %s no longer reports cycle key %s", e.File, k)
				}
			}
		}
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			return fmt.Errorf("corpus: %s: Phase I report differs between widths 1 and %d",
				e.File, []int{1, 2, 4}[i])
		}
	}
	return nil
}

// RenderCampaign renders a campaign observation as a deterministic text
// report: the serial-vs-parallel differential asserts byte-identity of
// this rendering across widths.
func RenderCampaign(co *analysis.CampaignObservation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign runs=%d completed=%d attempts=%d rawdeps=%d deps=%d steps=%d events=%d\n",
		co.Runs, co.Completed, co.Attempts, co.RawDeps, co.Deps, co.Steps, co.Events)
	fmt.Fprintf(&b, "cycles=%d falsepositives=%d\n", len(co.Cycles), len(co.FalsePositives))
	for i, rs := range co.PerRun {
		fmt.Fprintf(&b, "run %d: seed=%d attempts=%d completed=%t deps=%d cycles=%d new=%d\n",
			i, rs.Seed, rs.Attempts, rs.Completed, rs.Deps, rs.Cycles, rs.NewCycles)
	}
	for i, c := range co.Cycles {
		fmt.Fprintf(&b, "cycle %d: %s\n", i, c.Key())
	}
	for i, c := range co.FalsePositives {
		fmt.Fprintf(&b, "false %d: %s\n", i, c.Key())
	}
	return b.String()
}

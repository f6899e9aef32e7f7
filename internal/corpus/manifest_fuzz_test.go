package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeManifest feeds arbitrary bytes to the manifest decoder
// behind Load, seeded with the committed corpus manifest. Bad input
// must come back as a "corpus:" error, never a panic, and an accepted
// manifest must name only files inside its directory.
func FuzzDecodeManifest(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"entries":[{"file":"../gen-000001.clf"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest("corpus", data)
		if err != nil {
			if m != nil || !strings.HasPrefix(err.Error(), "corpus: ") {
				t.Fatalf("bad manifest: got %v, %q", m, err)
			}
			return
		}
		for _, e := range m.Entries {
			if filepath.Dir(filepath.Join("corpus", e.File)) != "corpus" {
				t.Fatalf("accepted entry %q outside the corpus directory", e.File)
			}
		}
		_ = m.Keys()
		_ = m.ConfirmedCount()
	})
}

package query

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpm/internal/store"
)

// Fixtures holds the backends identityStore (identity_test.go) built for
// the five identity layouts, each in the directory its dir names (see
// the MANIFEST): files an earlier writer wrote, which the reader must go
// on reading as it did whatever the writer does now. Exported for the
// external tests of this directory.
const Fixtures = "../store/testdata/v3"

// LoadFixture copies one layout's segment files, checked against the
// manifest, into a memory backend.
func LoadFixture(t *testing.T, dir, layout string) store.Backend {
	t.Helper()
	man, err := os.ReadFile(dir + "/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	be := store.NewMemBackend()
	for _, entry := range strings.Split(string(man), "\n") {
		name, found := strings.CutPrefix(entry, layout+"/")
		if !found {
			continue
		}
		name, sum, _ := strings.Cut(name, "\t")
		data, err := os.ReadFile(dir + "/" + layout + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%d\t%x", len(data), sha256.Sum256(data)); got != sum {
			t.Fatalf("%s/%s is %s, the manifest says %s", layout, name, got, sum)
		}
		if err := be.Create(name, data); err != nil {
			t.Fatal(err)
		}
	}
	return be
}

// run is Run on the given number of workers, without the metrics: the
// tests that pin results identical across worker counts call it.
func run(rd *store.Reader, q *Query, workers int) (*Result, error) {
	a, err := exec(rd, q, workers)
	if err != nil {
		return nil, err
	}
	return a.result(), nil
}

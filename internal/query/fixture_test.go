package query

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpm/internal/store"
)

// V2Fixtures holds the backends identityStore (identity_test.go) built
// for the three v2 layouts at the last commit whose writer produced v2
// payloads (front-coded text only), V1Fixtures those of the two v1
// layouts at the last commit with a v1 writer (see each MANIFEST). No
// writer makes such files any more, so these are what keeps the v2 and
// v1 readers honest. Exported for the external tests of this directory.
const (
	V2Fixtures = "../store/testdata/v2"
	V1Fixtures = "../store/testdata/v1"
)

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

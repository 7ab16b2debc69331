package query

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/store"
	"dpm/internal/trace"
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

// AppendLine appends one record given as its line: AppendBatch of a
// batch of one (LineRec), for tests that write record by record.
// Exported for the external tests of this directory.
func AppendLine(st *store.Store, m store.Meta, line string) error {
	return st.AppendBatch([]store.BatchRec{LineRec(m, line)})
}

// LineRec types a record given as its log line, as the filter hands it
// over: each key of m's event type that trace.ParseOne reads on the
// line, with a value of the key's kind, goes into its Slots.
func LineRec(m store.Meta, line string) store.BatchRec {
	ev, _ := trace.ParseOne([]byte(line))
	s := new(trace.Slots)
	s.Reset(ev.ProcTime)
	keys, names := trace.SlotKeys(meter.Type(m.Type), meter.Type(m.Type).String())
	for k, key := range keys {
		if n, ok := ev.Names[key]; ok && names>>k&1 != 0 {
			s.SetName(k, n)
		} else if v, ok := ev.Fields[key]; ok && names>>k&1 == 0 {
			s.SetVal(k, v)
		}
	}
	return store.BatchRec{Meta: m, Line: []byte(line), Slots: s}
}

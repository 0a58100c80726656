package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"metricindex/internal/store"
)

// craftedHeader starts a dataset file of kind LA: magic, kind, d⁺.
func craftedHeader(mag string) *store.Writer {
	w := store.NewWriter()
	w.Raw([]byte(mag))
	w.U8(uint8(len(LA)))
	w.Raw([]byte(LA))
	w.F64(1)
	return w
}

// TestLoadRejectsCraftedCounts is the regression test for Load sizing
// its object and query slices from unchecked u32 counts: a file of a few
// bytes that claims 2²⁴ objects, queries or attribute bags must be
// refused before anything of that size is allocated.
func TestLoadRejectsCraftedCounts(t *testing.T) {
	const claim = 1 << 24
	objects := craftedHeader(magic)
	objects.U32(claim)
	queries := craftedHeader(magic)
	queries.U32(0)
	queries.U32(claim)
	bags := craftedHeader(magicV2)
	bags.U32(0)
	bags.U32(0)
	bags.U32(claim)
	dir := t.TempDir()
	for name, w := range map[string]*store.Writer{"objects": objects, "queries": queries, "attrs": bags} {
		path := filepath.Join(dir, name+".midx")
		if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a file claiming %d entries in %d bytes loaded", name, claim, len(w.Bytes()))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: Load allocated %d bytes for a %d-byte file", name, alloc, len(w.Bytes()))
		}
	}
}

// FuzzDatasetFile throws crafted bytes at Load: it must return an error
// or a dataset, never panic, and a file that loads must round-trip —
// saving it and loading that again gives the same bytes.
func FuzzDatasetFile(f *testing.F) {
	dir := f.TempDir()
	for i, kind := range AllKinds {
		g, err := Generate(kind, Config{N: 6, Queries: 2, Seed: int64(i)})
		if err != nil {
			f.Fatal(err)
		}
		if i%2 == 1 {
			if err := AttachAttrs(g, 3); err != nil {
				f.Fatal(err)
			}
		}
		path := filepath.Join(dir, "seed.midx")
		if err := Save(path, g); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(magicV2))
	f.Add([]byte{})

	in, out := filepath.Join(dir, "in.midx"), filepath.Join(dir, "out.midx")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Load(in)
		if err != nil {
			return
		}
		once := saveBytes(t, out, g)
		again, err := Load(out)
		if err != nil {
			t.Fatalf("a saved dataset does not load: %v", err)
		}
		if twice := saveBytes(t, out, again); !bytes.Equal(once, twice) {
			t.Fatalf("round trip changed the file:\n%x\n%x", once, twice)
		}
	})
}

func saveBytes(t *testing.T, path string, g *Generated) []byte {
	t.Helper()
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

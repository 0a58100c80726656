package table_test

import (
	"math/rand"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// TestTableFamilyChurnLockstep is the update-path property test of the
// one pivot table, run for every family on it — LAESA, EPT, EPT*, CPT,
// and the paged Omni-seq and DiskEPT* — on the flat (vectors) and the
// object (words) verification path, over four blocks of rows, so that
// queries skip and visit blocks and updates widen, open and drop zones
// (a paged table's pages fill and gain tombstones). A seeded random interleaving of inserts and
// deletes must keep the row state in step (Validate: directory, ids,
// every column, the zones, the coordinate mirror —
// and for CPT the M-tree) after every update of the interleaving and
// every 64th of the bulk empty-and-refill, and every range/kNN answer
// equal to the linear scan. Besides random inserts and deletes the
// interleaving covers deleting the last row (the swap-with-last
// degenerates to a truncate), deleting an object and reinserting the
// same id, and emptying the table, querying it empty and refilling it.
// The mirror's own lifecycle (re-arm on refill, drop on a misfit) is
// TestTableMirrorLifecycle.
func TestTableFamilyChurnLockstep(t *testing.T) {
	for _, family := range []string{"LAESA", "EPT", "EPT*", "CPT", "Omni-seq", "DiskEPT*"} {
		paged := family == "Omni-seq" || family == "DiskEPT*"
		for _, ed := range testutil.EquivDatasets(false, 4*table.ZoneRows, 17) {
			t.Run(family+"/"+ed.Name, func(t *testing.T) {
				churnLockstep(t, ed.DS, goldenBuild(t, family, ed.DS), paged)
			})
		}
	}
}

func churnLockstep(t *testing.T, ds *core.Dataset, idx goldenIndex, paged bool) {
	val := idx.(interface {
		Validate() error
		Table() *table.Table
	})
	rng := rand.New(rand.NewSource(5))
	// rows models the table's row order: the order the build left (a
	// curve order on the shared-pivot layout), appended at the end, the
	// last row swapped into a deleted one's place — or, on a paged table,
	// a tombstone (−1) left in the deleted row's record. live counts the
	// rows that are not tombstones.
	ids := val.Table().IDs
	if paged {
		ids = val.Table().RecordIDs
	}
	var rows []int
	for _, id := range ids() {
		rows = append(rows, int(id))
	}
	live := len(rows)
	// nth returns the position in rows of the k-th live row.
	nth := func(k int) int {
		for i, id := range rows {
			if id >= 0 {
				if k == 0 {
					return i
				}
				k--
			}
		}
		t.Fatalf("the model holds no live row %d", k)
		return -1
	}
	updates := 0
	valid := func(what string) {
		t.Helper()
		if err := val.Validate(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		if n := val.Table().Len(); n != live {
			t.Fatalf("after %s: the table holds %d rows, the model %d", what, n, live)
		}
		got := ids()
		if len(got) != len(rows) {
			t.Fatalf("after %s: the table holds %d records, the model %d", what, len(got), len(rows))
		}
		for i, id := range got {
			if int(id) != rows[i] {
				t.Fatalf("after %s: row %d holds object %d, the model %d", what, i, id, rows[i])
			}
		}
	}
	// bulk validates only every 64th call: emptying and refilling update
	// every row, and a validation costs a pass over the table.
	bulk := func(what string) {
		t.Helper()
		if updates++; updates%64 == 0 || live == 0 {
			valid(what)
		}
	}
	answers := func() {
		t.Helper()
		q := testutil.RandomQuery(ds, rng.Int63())
		radii := testutil.Radii(ds, q)
		testutil.CheckRange(t, idx, ds, q, radii[1])
		testutil.CheckRange(t, idx, ds, q, radii[3])
		testutil.CheckKNN(t, idx, ds, q, 1+rng.Intn(12))
	}
	insert := func(id int, check func(string)) {
		t.Helper()
		if err := idx.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
		rows = append(rows, id)
		live++
		check("insert")
	}
	// remove deletes the k-th live row's object from the index and, when
	// forget is set, from the dataset too.
	remove := func(k int, forget bool, check func(string)) int {
		t.Helper()
		i := nth(k)
		id := rows[i]
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if forget {
			if err := ds.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if paged {
			rows[i] = -1
		} else {
			rows[i] = rows[len(rows)-1]
			rows = rows[:len(rows)-1]
		}
		live--
		check("delete")
		return id
	}
	churn := func(ops int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			op := rng.Intn(5)
			if live < 20 {
				op = 0
			}
			switch op {
			case 0, 1:
				insert(ds.Insert(testutil.RandomQuery(ds, rng.Int63())), valid)
			case 2:
				remove(rng.Intn(live), true, valid)
			case 3:
				remove(live-1, true, valid)
			case 4:
				insert(remove(rng.Intn(live), false, valid), valid)
			}
			if i%8 == 7 {
				answers()
			}
		}
	}

	valid("build")
	churn(120)
	var emptied []int
	for _, id := range rows {
		if id >= 0 {
			emptied = append(emptied, id)
		}
	}
	for live > 0 {
		remove(live-1, false, bulk)
	}
	q := testutil.RandomQuery(ds, rng.Int63())
	if got, err := idx.RangeSearch(q, testutil.Radii(ds, q)[4]); err != nil || len(got) != 0 {
		t.Fatalf("range over the emptied table: %v, %v", got, err)
	}
	if got, err := idx.KNNSearch(q, 5); err != nil || len(got) != 0 {
		t.Fatalf("kNN over the emptied table: %v, %v", got, err)
	}
	rng.Shuffle(len(emptied), func(i, j int) { emptied[i], emptied[j] = emptied[j], emptied[i] })
	for _, id := range emptied {
		insert(id, bulk)
	}
	valid("refilling")
	answers()
	churn(60)
}

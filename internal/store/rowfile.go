package store

import (
	"encoding/binary"
	"fmt"
)

// RowFile is a file of fixed-width records on the pages of a Pager: the
// rows of a paged pivot table (the Omni-sequential-file, DiskEPT*).
// Records are numbered in append order, record i in slot i % PerPage of
// the file's page i / PerPage, and a page holds its record count and then
// its records back to back:
//
//	count u16 | count × width bytes
//
// Every write — an append or an overwrite in place — costs what a
// read-modify-write of its page would: one page read and one write.
type RowFile struct {
	pager *Pager
	width int
	pages []PageID
	rows  int
}

const rowCountLen = 2

// NewRowFile returns an empty file of width-byte records on p.
func NewRowFile(p *Pager, width int) (*RowFile, error) {
	f := &RowFile{pager: p, width: width}
	if f.PerPage() < 1 {
		return nil, fmt.Errorf("store: page size %d below one row (%d bytes)", p.PageSize(), width)
	}
	return f, nil
}

// Restore reopens the empty file f as rows records on pages, checking
// them against the volume: every page exists, the pages are exactly
// those rows fill, and every page counts PerPage records but the last,
// which counts the rest. (Two names for one page then make its records
// repeat, which the caller's check of the record ids catches.) Reading
// the counts costs no page access.
func (f *RowFile) Restore(pages []PageID, rows int) error {
	pp := f.PerPage()
	if rows < 0 || (rows+pp-1)/pp != len(pages) {
		return fmt.Errorf("store: %d rows of %d a page do not fill %d pages", rows, pp, len(pages))
	}
	f.pages, f.rows = pages, rows
	for i, pid := range pages {
		if int(pid) >= f.pager.Pages() {
			return fmt.Errorf("store: row page %d beyond the volume's %d pages", pid, f.pager.Pages())
		}
		if n, want := int(binary.LittleEndian.Uint16(f.pager.Peek(pid))), min(pp, rows-i*pp); n != want {
			return fmt.Errorf("store: row page %d counts %d records, want %d", i, n, want)
		}
	}
	return nil
}

// PerPage returns how many records a page holds.
func (f *RowFile) PerPage() int { return (f.pager.PageSize() - rowCountLen) / f.width }

// Width returns the record width in bytes.
func (f *RowFile) Width() int { return f.width }

// Rows returns the number of records ever appended.
func (f *RowFile) Rows() int { return f.rows }

// PageIDs returns the file's pages in record order.
func (f *RowFile) PageIDs() []PageID { return f.pages }

// Append writes rec as the next record, opening a page when the last one
// is full, and returns its number.
func (f *RowFile) Append(rec []byte) (int, error) {
	row := f.rows
	if row/f.PerPage() == len(f.pages) {
		f.pages = append(f.pages, f.pager.Alloc())
	}
	var count [rowCountLen]byte
	binary.LittleEndian.PutUint16(count[:], uint16(row%f.PerPage()+1))
	if err := f.write(row, count[:], rec); err != nil {
		return 0, err
	}
	f.rows++
	return row, nil
}

// Set overwrites record row, one of the Rows appended, with rec.
func (f *RowFile) Set(row int, rec []byte) error { return f.write(row, nil, rec) }

// write reads record row's page and writes rec into its slot, and count
// (when not nil) into the page header, as one write.
func (f *RowFile) write(row int, count, rec []byte) error {
	pp := f.PerPage()
	pid := f.pages[row/pp]
	if _, err := f.pager.Read(pid); err != nil {
		return err
	}
	return f.pager.WriteHeadAt(pid, count, rowCountLen+row%pp*f.width, rec[:f.width])
}

// Page reads page i — one page access, modulo the cache — and returns its
// records, count × width bytes, aliasing the page: read-only, and valid
// until the page is next written.
//
//metriclint:noalloc
func (f *RowFile) Page(i int) ([]byte, error) {
	pg, err := f.pager.Read(f.pages[i])
	if err != nil {
		return nil, err
	}
	return f.records(pg), nil
}

// Peek is Page without the page access: for checking a restored file or
// validating a table, never for a query.
func (f *RowFile) Peek(i int) []byte { return f.records(f.pager.Peek(f.pages[i])) }

//metriclint:noalloc
func (f *RowFile) records(pg []byte) []byte {
	return pg[rowCountLen : rowCountLen+int(binary.LittleEndian.Uint16(pg))*f.width]
}

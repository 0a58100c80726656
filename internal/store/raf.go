package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"metricindex/internal/core"
)

// RAF is the random-access file of the Omni-family, M-index, and SPB-tree:
// a sequential log of (id, payload) records laid out across pages of a
// Pager, addressed by byte offset. Reading a record touches every page the
// record spans, which is exactly how the paper charges RAF I/O (and why a
// kNN search that revisits objects out of order benefits from the LRU
// cache).
//
// Records are: uint32 id | uint32 payloadLen | payload bytes.
type RAF struct {
	mu    sync.Mutex
	pager *Pager
	pages []PageID // pages of the log in order
	size  int64    // bytes appended so far
	live  int64    // bytes not yet deleted
	// dir is the in-memory directory, indexed by object id (dataset ids
	// are dense, so a slice is both smaller and faster than a map).
	dir   []rafRecord
	count int // live entries of dir
}

type rafRecord struct {
	off  int64
	n    int32 // payload length
	live bool
}

const rafHeaderLen = 8

// NewRAF creates an empty RAF on the given pager.
func NewRAF(p *Pager) *RAF {
	return &RAF{pager: p}
}

// lookup returns the directory entry of id. Caller holds mu.
//
//metriclint:noalloc
func (r *RAF) lookup(id int) (rafRecord, bool) {
	if id < 0 || id >= len(r.dir) || !r.dir[id].live {
		return rafRecord{}, false
	}
	return r.dir[id], true
}

// setRecord enters id into the directory, growing it to cover id.
// Caller holds mu.
func (r *RAF) setRecord(id int, rec rafRecord) {
	if id >= len(r.dir) {
		r.dir = append(r.dir, make([]rafRecord, id+1-len(r.dir))...)
	}
	r.dir[id] = rec
	r.count++
}

// Append writes a record for object id and returns its byte offset.
func (r *RAF) Append(id int, payload []byte) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || int64(id) > math.MaxUint32 || int64(len(payload)) > math.MaxInt32 {
		return 0, fmt.Errorf("store: RAF record (id %d, %d bytes) does not fit the record header", id, len(payload))
	}
	if _, dup := r.lookup(id); dup {
		return 0, fmt.Errorf("store: RAF already holds object %d", id)
	}
	var hdr [rafHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(id))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	off := r.size
	if err := r.write(hdr[:]); err != nil {
		return 0, err
	}
	if err := r.write(payload); err != nil {
		return 0, err
	}
	r.setRecord(id, rafRecord{off: off, n: int32(len(payload)), live: true})
	r.live += int64(rafHeaderLen + len(payload))
	return off, nil
}

// write appends bytes to the log in place, allocating pages as needed.
// Every touched page costs the read and the write a read-modify-write of
// a whole page would. Caller holds mu.
func (r *RAF) write(data []byte) error {
	ps := int64(r.pager.PageSize())
	for len(data) > 0 {
		pageIdx := r.size / ps
		inPage := int(r.size % ps)
		if int(pageIdx) >= len(r.pages) {
			r.pages = append(r.pages, r.pager.Alloc())
		}
		pid := r.pages[pageIdx]
		if _, err := r.pager.Read(pid); err != nil {
			return err
		}
		n := min(len(data), int(ps)-inPage)
		if err := r.pager.WriteAt(pid, inPage, data[:n]); err != nil {
			return err
		}
		data = data[n:]
		r.size += int64(n)
	}
	return nil
}

// Offset returns the byte offset of object id's record.
func (r *RAF) Offset(id int) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.lookup(id)
	return rec.off, ok
}

// Read fetches the payload of object id into a fresh buffer.
func (r *RAF) Read(id int) ([]byte, error) {
	return r.ReadInto(id, nil)
}

// ReadInto fetches the payload of object id into dst's backing array
// (grown when too small) and returns it. It touches every page the
// record spans: the header's, then the payload's. A header naming
// another object — a corrupt directory entry — is an error.
//
//metriclint:noalloc
func (r *RAF) ReadInto(id int, dst []byte) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.lookup(id)
	if !ok {
		return nil, errNoObject(id)
	}
	return r.readRecord(rec.off, id, dst)
}

// ReadObject fetches and decodes object id: the candidate loader of the
// paged tables.
func (r *RAF) ReadObject(id int) (core.Object, error) {
	buf, err := r.Read(id)
	if err != nil {
		return nil, err
	}
	o, _, err := DecodeObject(buf)
	return o, err
}

func errNoObject(id int) error { return fmt.Errorf("store: RAF has no object %d", id) }

func errWrongObject(off int64, got uint32, id int) error {
	return fmt.Errorf("store: RAF record at %d holds object %d, not %d", off, got, id)
}

// ReadAt fetches the record starting at the given byte offset and returns
// its payload.
func (r *RAF) ReadAt(off int64) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.readRecord(off, -1, nil)
}

// IDAt returns the object id of the record starting at the given offset.
func (r *RAF) IDAt(off int64) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var hdr [rafHeaderLen]byte
	if err := r.readBytes(hdr[:], off); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(hdr[0:4])), nil
}

// readRecord reads the header at off, then the payload it announces,
// into dst; a header naming an object other than id (unless id < 0) is
// an error. Caller holds mu.
//
//metriclint:noalloc
func (r *RAF) readRecord(off int64, id int, dst []byte) ([]byte, error) {
	var hdr [rafHeaderLen]byte
	if err := r.readBytes(hdr[:], off); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); id >= 0 && got != uint32(id) {
		return nil, errWrongObject(off, got, id)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if off+rafHeaderLen+int64(n) > r.size { // before n sizes a buffer
		return nil, errBeyondSize(off+rafHeaderLen, n, r.size)
	}
	if cap(dst) < n {
		//metriclint:ignore noalloc grows to the largest record once; the caller keeps the buffer
		dst = make([]byte, n)
	}
	dst = dst[:n]
	if err := r.readBytes(dst, off+rafHeaderLen); err != nil {
		return nil, err
	}
	return dst, nil
}

// readBytes fills out with the bytes starting at off, paying one page
// access per covered page (modulo the cache). Caller holds mu.
//
//metriclint:noalloc
func (r *RAF) readBytes(out []byte, off int64) error {
	if off < 0 || off+int64(len(out)) > r.size {
		return errBeyondSize(off, len(out), r.size)
	}
	ps := int64(r.pager.PageSize())
	for len(out) > 0 {
		page, err := r.pager.Read(r.pages[off/ps])
		if err != nil {
			return err
		}
		n := copy(out, page[off%ps:])
		out = out[n:]
		off += int64(n)
	}
	return nil
}

func errBeyondSize(off int64, n int, size int64) error {
	return fmt.Errorf("store: RAF read [%d,%d) beyond size %d", off, off+int64(n), size)
}

// Delete drops object id from the directory. Log space is not reclaimed
// (the paper's update experiment measures delete+reinsert cost, not
// compaction), but the live-byte counter shrinks.
func (r *RAF) Delete(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.lookup(id)
	if !ok {
		return fmt.Errorf("store: RAF delete of absent object %d", id)
	}
	r.dir[id] = rafRecord{}
	r.count--
	r.live -= int64(rafHeaderLen) + int64(rec.n)
	return nil
}

// Len returns the number of records currently in the directory.
func (r *RAF) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// SizeBytes returns the total bytes ever appended to the log.
func (r *RAF) SizeBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// MemBytes reports the resident size of the RAF's in-memory state: the
// id directory and the page list.
func (r *RAF) MemBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(cap(r.dir))*16 + int64(cap(r.pages))*4
}

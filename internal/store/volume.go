package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
)

// Volume serialization: a Pager (and the RAF directory laid over it) can
// be written out as a self-describing byte image and reopened later, so
// the disk-resident indexes restore without rebuilding. The format is
// specified normatively in docs/PERSISTENCE.md; every change here must be
// reflected there.
//
// Pager volume layout (all integers little-endian):
//
//	magic     6 bytes "MXVOL1"
//	version   u16 (currently 1)
//	flags     u8  (bit0 = clean; loaders reject unclean volumes)
//	pageSize  u32
//	nPages    u32
//	nFree     u32
//	freeList  nFree × u32
//	pageCRC   u32 (CRC-32/IEEE over the concatenated page images)
//	pages     nPages × pageSize bytes

const (
	volumeMagic   = "MXVOL1"
	volumeVersion = 1
	volumeClean   = 1 << 0
)

// Serialize writes the volume image: every page, the free list, and a
// checksum over the page data. The access counters and the buffer cache
// are not part of the image (a reopened volume starts with fresh counters
// and the cache disabled).
func (p *Pager) Serialize() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	crc := crc32.NewIEEE()
	for _, pg := range p.pages {
		_, _ = crc.Write(pg)
	}
	w := NewWriter()
	w.Raw([]byte(volumeMagic))
	w.U16(volumeVersion)
	w.U8(volumeClean)
	w.U32(uint32(p.pageSize))
	w.U32(uint32(len(p.pages)))
	w.PageIDs(p.freeList)
	w.U32(crc.Sum32())
	for _, pg := range p.pages {
		w.Raw(pg)
	}
	return w.Bytes()
}

// LoadPager reopens a volume image produced by Serialize. It validates
// the magic, format version, clean flag, page checksum and free list, and
// returns a pager with fresh access counters and the cache disabled.
func LoadPager(data []byte) (*Pager, error) {
	r := NewReader(data)
	magic, ver, flags := r.Raw(len(volumeMagic)), r.U16(), r.U8()
	pageSize := int(r.U32())
	nPages := r.Count(pageSize)
	free := r.PageIDs()
	wantCRC := r.U32()
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case string(magic) != volumeMagic:
		return nil, fmt.Errorf("store: bad volume magic %q", magic)
	case ver != volumeVersion:
		return nil, fmt.Errorf("store: unsupported volume version %d (want %d)", ver, volumeVersion)
	case flags&volumeClean == 0:
		return nil, fmt.Errorf("store: volume marked dirty; refusing to open")
	case pageSize <= 0 || pageSize > 1<<24:
		return nil, fmt.Errorf("store: implausible page size %d", pageSize)
	case r.Remaining() != nPages*pageSize:
		return nil, fmt.Errorf("store: volume has %d page bytes, want %d×%d", r.Remaining(), nPages, pageSize)
	}
	freed := make([]bool, nPages)
	for _, id := range free {
		if uint64(id) >= uint64(nPages) || freed[id] {
			return nil, fmt.Errorf("store: free page %d beyond volume of %d pages or listed twice", id, nPages)
		}
		freed[id] = true
	}
	p := NewPager(pageSize)
	p.pages = make([][]byte, nPages)
	p.slotOf = make([]int32, nPages)
	p.freeList = free
	crc := crc32.NewIEEE()
	for i := range p.pages {
		pg := r.Raw(pageSize)
		_, _ = crc.Write(pg)
		p.pages[i] = bytes.Clone(pg)
	}
	if crc.Sum32() != wantCRC {
		return nil, fmt.Errorf("store: volume page checksum mismatch")
	}
	return p, nil
}

// Serialize writes the RAF state — the page list, append offset and the
// id directory — relative to its pager (which must be serialized
// alongside via Pager.Serialize). Directory entries are written in id
// order, so equal RAFs serialize to equal bytes.
//
// Layout: nPages u32 | pages u32× | size u64 | live u64 | nDir u32 |
// nDir × (id u32, off u64, n u32).
func (r *RAF) Serialize() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := NewWriter()
	w.PageIDs(r.pages)
	w.I64(r.size)
	w.I64(r.live)
	w.U32(uint32(r.count))
	for id, rec := range r.dir {
		if !rec.live {
			continue
		}
		w.U32(uint32(id))
		w.I64(rec.off)
		w.U32(uint32(rec.n))
	}
	return w.Bytes()
}

// LoadVolume reopens a pager volume image (LoadPager) and the RAF state
// laid over it (LoadRAF), the pair every disk index that keeps its
// objects in a RAF stores; idLimit is the dataset's id range.
func LoadVolume(pagerImage, rafState []byte, idLimit int) (*Pager, *RAF, error) {
	p, err := LoadPager(pagerImage)
	if err != nil {
		return nil, nil, err
	}
	r, err := LoadRAF(p, rafState, idLimit)
	if err != nil {
		return nil, nil, err
	}
	return p, r, nil
}

// LoadRAF rebinds a serialized RAF to its reopened pager. Directory
// entries may come in any order (files written before the id-ordered
// Serialize have them in map order); every id must be below idLimit —
// the id range of the dataset the RAF indexes — so a corrupt entry
// cannot size the directory.
func LoadRAF(p *Pager, data []byte, idLimit int) (*RAF, error) {
	rd := NewReader(data)
	pages := rd.PageIDs()
	size, live := rd.I64(), rd.I64()
	nDir := rd.Count(16)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	for _, pid := range pages {
		if uint64(pid) >= uint64(p.Pages()) {
			return nil, fmt.Errorf("store: RAF page %d beyond volume of %d pages", pid, p.Pages())
		}
	}
	if size < 0 || size > int64(len(pages))*int64(p.PageSize()) {
		return nil, fmt.Errorf("store: RAF size %d exceeds its %d pages", size, len(pages))
	}
	r := &RAF{pager: p, pages: pages, size: size, live: live}
	for i := 0; i < nDir; i++ {
		id, recOff, n := int64(rd.U32()), rd.I64(), int64(rd.U32())
		if id >= int64(idLimit) {
			return nil, fmt.Errorf("store: RAF record for id %d beyond the dataset's %d ids", id, idLimit)
		}
		if recOff < 0 || n > math.MaxInt32 || recOff > size-rafHeaderLen-n {
			return nil, fmt.Errorf("store: RAF record for %d at [%d,+%d) beyond size %d", id, recOff, n, size)
		}
		if _, dup := r.lookup(int(id)); dup {
			return nil, fmt.Errorf("store: RAF directory lists id %d twice", id)
		}
		r.setRecord(int(id), rafRecord{off: recOff, n: int32(n), live: true})
	}
	rd.ExpectEOF()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

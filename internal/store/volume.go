package store

import (
	"encoding/binary"
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
	buf := make([]byte, 0, len(volumeMagic)+17+4*len(p.freeList)+len(p.pages)*p.pageSize)
	buf = append(buf, volumeMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, volumeVersion)
	buf = append(buf, volumeClean)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.pageSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.pages)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.freeList)))
	for _, id := range p.freeList {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	crc := crc32.NewIEEE()
	for _, pg := range p.pages {
		_, _ = crc.Write(pg)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc.Sum32())
	for _, pg := range p.pages {
		buf = append(buf, pg...)
	}
	return buf
}

// LoadPager reopens a volume image produced by Serialize. It validates
// the magic, format version, clean flag and page checksum, and returns a
// pager with fresh access counters and the cache disabled.
func LoadPager(data []byte) (*Pager, error) {
	hdr := len(volumeMagic) + 2 + 1 + 4 + 4 + 4
	if len(data) < hdr {
		return nil, fmt.Errorf("store: volume truncated (%d bytes)", len(data))
	}
	if string(data[:len(volumeMagic)]) != volumeMagic {
		return nil, fmt.Errorf("store: bad volume magic %q", data[:len(volumeMagic)])
	}
	off := len(volumeMagic)
	ver := binary.LittleEndian.Uint16(data[off:])
	if ver != volumeVersion {
		return nil, fmt.Errorf("store: unsupported volume version %d (want %d)", ver, volumeVersion)
	}
	flags := data[off+2]
	if flags&volumeClean == 0 {
		return nil, fmt.Errorf("store: volume marked dirty; refusing to open")
	}
	pageSize := int(binary.LittleEndian.Uint32(data[off+3:]))
	nPages := int(binary.LittleEndian.Uint32(data[off+7:]))
	nFree := int(binary.LittleEndian.Uint32(data[off+11:]))
	off += 15
	if pageSize <= 0 || pageSize > 1<<24 {
		return nil, fmt.Errorf("store: implausible page size %d", pageSize)
	}
	if rem := len(data) - off; nFree < 0 || nFree > rem/4 {
		return nil, fmt.Errorf("store: free list of %d entries exceeds volume", nFree)
	}
	free := make([]PageID, nFree)
	for i := range free {
		free[i] = PageID(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	if len(data)-off < 4 {
		return nil, fmt.Errorf("store: volume truncated before checksum")
	}
	wantCRC := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if len(data)-off != nPages*pageSize {
		return nil, fmt.Errorf("store: volume has %d page bytes, want %d×%d", len(data)-off, nPages, pageSize)
	}
	if crc32.ChecksumIEEE(data[off:]) != wantCRC {
		return nil, fmt.Errorf("store: volume page checksum mismatch")
	}
	p := NewPager(pageSize)
	p.pages = make([][]byte, nPages)
	p.slotOf = make([]int32, nPages)
	for i := range p.pages {
		pg := make([]byte, pageSize)
		copy(pg, data[off:off+pageSize])
		p.pages[i] = pg
		off += pageSize
	}
	for _, id := range free {
		if int(id) >= nPages {
			return nil, fmt.Errorf("store: free page %d beyond volume of %d pages", id, nPages)
		}
	}
	p.freeList = free
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
	buf := make([]byte, 0, 24+4*len(r.pages)+16*r.count)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.pages)))
	for _, id := range r.pages {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.size))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.live))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.count))
	for id, rec := range r.dir {
		if !rec.live {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.off))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.n))
	}
	return buf
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
	if len(data) < 4 {
		return nil, fmt.Errorf("store: RAF state truncated")
	}
	nPages := int(binary.LittleEndian.Uint32(data))
	off := 4
	if nPages < 0 || nPages > (len(data)-off)/4 {
		return nil, fmt.Errorf("store: RAF page list of %d exceeds state", nPages)
	}
	pages := make([]PageID, nPages)
	for i := range pages {
		pid := PageID(binary.LittleEndian.Uint32(data[off:]))
		if int(pid) >= p.Pages() {
			return nil, fmt.Errorf("store: RAF page %d beyond volume of %d pages", pid, p.Pages())
		}
		pages[i] = pid
		off += 4
	}
	if len(data)-off < 20 {
		return nil, fmt.Errorf("store: RAF state truncated before directory")
	}
	size := int64(binary.LittleEndian.Uint64(data[off:]))
	live := int64(binary.LittleEndian.Uint64(data[off+8:]))
	nDir := int(binary.LittleEndian.Uint32(data[off+16:]))
	off += 20
	if nDir < 0 || nDir > (len(data)-off)/16 {
		return nil, fmt.Errorf("store: RAF directory of %d exceeds state", nDir)
	}
	if size < 0 || size > int64(nPages)*int64(p.PageSize()) {
		return nil, fmt.Errorf("store: RAF size %d exceeds its %d pages", size, nPages)
	}
	r := &RAF{pager: p, pages: pages, size: size, live: live}
	for i := 0; i < nDir; i++ {
		id := int(binary.LittleEndian.Uint32(data[off:]))
		recOff := int64(binary.LittleEndian.Uint64(data[off+4:]))
		n := int64(binary.LittleEndian.Uint32(data[off+12:]))
		if id >= idLimit {
			return nil, fmt.Errorf("store: RAF record for id %d beyond the dataset's %d ids", id, idLimit)
		}
		if recOff < 0 || n > math.MaxInt32 || recOff+rafHeaderLen+n > size {
			return nil, fmt.Errorf("store: RAF record for %d at [%d,+%d) beyond size %d", id, recOff, n, size)
		}
		if _, dup := r.lookup(id); dup {
			return nil, fmt.Errorf("store: RAF directory lists id %d twice", id)
		}
		r.setRecord(id, rafRecord{off: recOff, n: int32(n), live: true})
		off += 16
	}
	return r, nil
}

package permedia2

// pageSize is the framebuffer's allocation unit. Smaller pages track
// sparse drawing more finely but cost more allocations: 4 KiB pages raised
// the benchmark fleet's allocations per request by 7%, 64 KiB pages by
// 0.5%.
const pageSize = 64 << 10

// pages is a fixed-size byte store kept in pageSize pages (the last one
// shorter when pageSize does not divide the size). A page is allocated on
// its first non-zero write; an absent (nil) page reads as zeros.
type pages struct {
	size int
	p    [][]byte
}

func newPages(size int) pages {
	return pages{size: size, p: make([][]byte, (size+pageSize-1)/pageSize)}
}

// page returns page i, allocating it if it is absent.
func (m *pages) page(i int) []byte {
	if m.p[i] == nil {
		m.p[i] = make([]byte, min(pageSize, m.size-i*pageSize))
	}
	return m.p[i]
}

// read copies the len(dst) bytes at off into dst.
func (m *pages) read(dst []byte, off int) {
	for len(dst) > 0 {
		pg, po := m.p[off/pageSize], off%pageSize
		k := min(len(dst), pageSize-po)
		if pg == nil {
			clear(dst[:k])
		} else {
			copy(dst[:k], pg[po:])
		}
		dst, off = dst[k:], off+k
	}
}

// write copies src to off, allocating only the pages src makes non-zero.
func (m *pages) write(off int, src []byte) {
	for len(src) > 0 {
		i, po := off/pageSize, off%pageSize
		k := min(len(src), pageSize-po)
		if m.p[i] != nil || !zero(src[:k]) {
			copy(m.page(i)[po:], src[:k])
		}
		src, off = src[k:], off+k
	}
}

// fill sets the n bytes at off to the repeating pattern pat, aligned so
// that byte o of the store gets pat[o%len(pat)]. A zero pattern allocates
// no page.
func (m *pages) fill(off, n int, pat []byte) {
	for n > 0 {
		i, po := off/pageSize, off%pageSize
		k := min(n, pageSize-po)
		if m.p[i] != nil || !zero(pat) {
			ph := off % len(pat)
			for j, dst := 0, m.page(i)[po:po+k]; j < len(dst); j++ {
				dst[j] = pat[ph]
				if ph++; ph == len(pat) {
					ph = 0
				}
			}
		}
		n, off = n-k, off+k
	}
}

func zero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

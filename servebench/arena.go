package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// arena is append-only record storage outside the Go heap. The
// benchmark keeps one record per operation until the run is verified;
// on the Go heap that bookkeeping would grow with throughput and show
// in heap_MiB. record holds no pointers, so the collector never needs
// to see it.
type arena struct {
	chunks [][]record
	maps   [][]byte
	used   int // records used in the last chunk
}

// arenaChunk is the records per mapping (about 1 MiB).
const arenaChunk = 1 << 14

// add stores r and returns its stable address.
func (a *arena) add(r record) (*record, error) {
	if len(a.chunks) == 0 || a.used == arenaChunk {
		size := arenaChunk * int(unsafe.Sizeof(record{}))
		m, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("record arena: %w", err)
		}
		a.maps = append(a.maps, m)
		a.chunks = append(a.chunks, unsafe.Slice((*record)(unsafe.Pointer(&m[0])), arenaChunk))
		a.used = 0
	}
	p := &a.chunks[len(a.chunks)-1][a.used]
	*p = r
	a.used++
	return p, nil
}

// all returns the stored records in insertion order.
func (a *arena) all() []*record {
	var out []*record
	for i, c := range a.chunks {
		n := arenaChunk
		if i == len(a.chunks)-1 {
			n = a.used
		}
		for j := 0; j < n; j++ {
			out = append(out, &c[j])
		}
	}
	return out
}

// free unmaps the arena; no record it returned may be used after.
func (a *arena) free() {
	for _, m := range a.maps {
		syscall.Munmap(m)
	}
	*a = arena{}
}

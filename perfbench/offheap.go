package main

import (
	"fmt"
	"syscall"
	"unsafe"

	"pinsql/internal/dbsim"
)

// moveOffHeap copies a tenant's records, and every string they reference,
// into one anonymous memory mapping and points the batches at the copy.
//
// The garbage collector neither scans nor counts memory outside the Go
// heap. Left on the heap, a fleet's resident trace (hundreds of MB) would
// stretch the collector's pacing — the heap goal is a multiple of the live
// heap — so the monitor would collect less often than it does in
// production, and the heap the monitor itself uses could not be read apart
// from the trace. Off the heap, the trace costs the monitor nothing.
//
// The mapping is never unmapped: the fleet keeps strings that point into it
// (template IDs in its registries) for the rest of the process. Nothing in
// the mapping points into the Go heap.
func moveOffHeap(tr *tenantTrace) (int, error) {
	n, strBytes := 0, 0
	shared := map[string]bool{}
	for _, b := range tr.batches {
		n += len(b.Records)
		for _, r := range b.Records {
			strBytes += len(r.SQL)
			for _, s := range [...]string{r.TemplateID, r.Table} {
				if !shared[s] {
					shared[s] = true
					strBytes += len(s)
				}
			}
		}
	}
	recSize := int(unsafe.Sizeof(dbsim.LogRecord{}))
	size := n*recSize + strBytes
	if size == 0 {
		return 0, nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("map %d bytes for tenant %s: %w", size, tr.id, err)
	}
	// Records first: the mapping is page aligned and the record size is a
	// multiple of its alignment, so every record is aligned.
	recs := unsafe.Slice((*dbsim.LogRecord)(unsafe.Pointer(unsafe.SliceData(mem))), n)
	strs := mem[n*recSize:]
	str := func(s string) string {
		if s == "" {
			return ""
		}
		b := strs[:len(s):len(s)]
		strs = strs[len(s):]
		copy(b, s)
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	interned := make(map[string]string, len(shared))
	intern := func(s string) string {
		v, ok := interned[s]
		if !ok {
			v = str(s)
			interned[s] = v
		}
		return v
	}
	i := 0
	for bi := range tr.batches {
		b := &tr.batches[bi]
		start := i
		for _, r := range b.Records {
			r.SQL = str(r.SQL)
			r.TemplateID = intern(r.TemplateID)
			r.Table = intern(r.Table)
			recs[i] = r
			i++
		}
		b.Records = recs[start:i:i]
	}
	return size, nil
}

package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns n zeroed values of T in memory the Go runtime does not
// manage. T must hold no pointers. The benchmark keeps everything it records
// per request here (tens of megabytes in a run), because on the Go heap that
// memory would set the collector's pace: with a large live heap the runtime
// collects rarely, and the program under test would be spared the garbage
// collection its own allocations earn it on a node with nothing else in
// memory. Every page is touched at once, so the benchmark's share of
// peak_rss_mb is the same in every run instead of following the throughput.
func offHeap[T any](n int) []T {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// Nothing sensible can be measured on a machine that cannot map this.
		panic(fmt.Sprintf("benchmark: map %d bytes for sample logs: %v", size, err))
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 0
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)
}

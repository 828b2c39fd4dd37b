package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is the kernel's CPU set for one thread: room for 1024 processors.
type cpuMask [16]uint64

func (m *cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// last is the highest-numbered processor in the set, or -1 if it is empty.
func (m *cpuMask) last() int {
	for i := len(m) - 1; i >= 0; i-- {
		if m[i] != 0 {
			return i*64 + 63 - bits.LeadingZeros64(m[i])
		}
	}
	return -1
}

// allowedCPUs reads the calling thread's affinity.
func allowedCPUs() (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

// pinToOneCPU confines the whole process to a single processor, the last one
// it is allowed on, and returns that processor's number. When the process may
// run on several it narrows the calling thread's affinity and executes itself
// again: the new image starts with that one thread, every thread it makes
// inherits the mask, and the Go runtime, which sizes itself from the mask at
// start-up, runs one P. It does not return in that case.
//
// Why: on the shared two-vCPU box this was written on, the same code ran a
// third slower for minutes at a time whenever its goroutines had to wake each
// other across vCPUs (a window-1 round trip read 10 to 11 µs in some hours and
// 13 to 18 µs in others; two Ps bought no throughput over one and cost twice
// the CPU per request), because waking a halted vCPU is the host's work and
// the host was busy. On one processor nothing is woken across vCPUs: over
// twelve alternating 40 s blocks the round trip read 9.7 to 10.4 µs pinned
// and 12.0 to 15.6 µs unpinned. A run is then also the same on a box with two
// processors and on one with eight.
func pinToOneCPU() (int, error) {
	// The affinity set below is this thread's, and it is this thread that
	// must make the exec call.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	m, err := allowedCPUs()
	if err != nil {
		return -1, err
	}
	cpu := m.last()
	if m.count() <= 1 {
		return cpu, nil
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return -1, fmt.Errorf("sched_setaffinity to processor %d: %w", cpu, errno)
	}
	self, err := os.Executable()
	if err != nil {
		return -1, err
	}
	err = syscall.Exec(self, os.Args, os.Environ())
	// Still here: put the thread back where it was, so that the process is
	// at least all of one kind.
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return -1, fmt.Errorf("exec %s: %w", self, err)
}

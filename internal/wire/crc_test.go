package wire

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// crcPaths are the two ways updateCRC can compute a frame CRC on this host.
func crcPaths(t testing.TB) []bool {
	if !frameCRCKernel {
		t.Logf("this CPU does not run the vector kernel: checking hash/crc32 alone")
		return []bool{false}
	}
	return []bool{false, true}
}

// TestFrameCRCMatchesIEEE holds both paths to hash/crc32 on every length up to
// 4 KiB, at every alignment inside a cache line, from a zero and a random
// starting CRC.
func TestFrameCRCMatchesIEEE(t *testing.T) {
	const maxLen, maxAlign = 4096, 63
	buf := make([]byte, maxLen+maxAlign)
	rng := rand.New(rand.NewSource(1))
	rng.Read(buf)
	for _, start := range []uint32{0, rng.Uint32()} {
		for _, kernel := range crcPaths(t) {
			for align := 0; align <= maxAlign; align++ {
				for n := 0; n <= maxLen; n++ {
					p := buf[align : align+n]
					want := crc32.Update(start, crc32.IEEETable, p)
					if got := updateCRC(start, p, kernel); got != want {
						t.Fatalf("kernel=%v start=%#x align=%d len=%d: CRC %#08x, hash/crc32 %#08x", kernel, start, align, n, got, want)
					}
				}
			}
		}
	}
}

// FuzzFrameCRC holds the kernel to hash/crc32 on the fuzzer's bytes, offsets
// and starting CRCs.
func FuzzFrameCRC(f *testing.F) {
	f.Add(make([]byte, 300), uint8(0), uint32(0))
	f.Add([]byte(strings.Repeat("ndsm frame body ", 100)), uint8(3), uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, start uint32) {
		if int(off) > len(data) {
			off = uint8(len(data))
		}
		p := data[off:]
		want := crc32.Update(start, crc32.IEEETable, p)
		for _, kernel := range crcPaths(t) {
			if got := updateCRC(start, p, kernel); got != want {
				t.Fatalf("kernel=%v start=%#x off=%d len=%d: CRC %#08x, hash/crc32 %#08x", kernel, start, off, len(p), got, want)
			}
		}
	})
}

// TestFrameCRCKernelSelected fails when the CPU flags Linux reports and the
// kernel choice disagree, so a wrong CPUID bit or XCR0 mask shows up as a
// failure, not as a slower run.
func TestFrameCRCKernelSelected(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("reads /proc/cpuinfo on linux/amd64 only")
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(value) {
				flags[f] = true
			}
			break
		}
	}
	want := flags["avx512f"] && flags["avx512vl"] && flags["vpclmulqdq"]
	if frameCRCKernel != want {
		t.Fatalf("vector CRC kernel chosen = %v, but /proc/cpuinfo lists avx512f=%v avx512vl=%v vpclmulqdq=%v",
			frameCRCKernel, flags["avx512f"], flags["avx512vl"], flags["vpclmulqdq"])
	}
}

// BenchmarkFrameCRC times a frame's CRC on both paths: hash/crc32 and, where
// the CPU runs it, the vector kernel.
func BenchmarkFrameCRC(b *testing.B) {
	for _, n := range []int{64, 1 << 10, 16 << 10} {
		p := make([]byte, n)
		rand.New(rand.NewSource(1)).Read(p)
		for _, kernel := range []bool{false, true} {
			name := fmt.Sprintf("%dB/hash_crc32", n)
			if kernel {
				name = fmt.Sprintf("%dB/kernel", n)
			}
			b.Run(name, func(b *testing.B) {
				if kernel && !frameCRCKernel {
					b.Skip("this CPU does not run the vector kernel")
				}
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					updateCRC(0, p, kernel)
				}
			})
		}
	}
}

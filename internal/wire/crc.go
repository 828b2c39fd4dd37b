package wire

import "hash/crc32"

// frameCRCKernel is whether this CPU runs ieeeVPCLMUL; it is set once, at
// package initialisation.
var frameCRCKernel = vpclmulSupported()

// kernelMinLen is the shortest input the vector kernel takes: four ZMM
// registers' worth. The kernel already wins there: at 256 bytes it took
// 13-19 ns against hash/crc32's 19-21 ns on a Sapphire Rapids Xeon.
const kernelMinLen = 256

// frameCRC extends crc, a CRC-32/IEEE, over p: the frame trailer's checksum.
func frameCRC(crc uint32, p []byte) uint32 { return updateCRC(crc, p, frameCRCKernel) }

// updateCRC is frameCRC with the choice of kernel made by the caller. From
// kernelMinLen bytes it runs the vector kernel over the body's whole 16-byte
// blocks and hash/crc32 over the rest; below that, or with kernel false, it is
// hash/crc32 alone. Either way the value is the same CRC-32/IEEE.
func updateCRC(crc uint32, p []byte, kernel bool) uint32 {
	if kernel && len(p) >= kernelMinLen {
		n := len(p) &^ 15
		crc = ^ieeeVPCLMUL(^crc, p[:n])
		p = p[n:]
	}
	return crc32.Update(crc, crc32.IEEETable, p)
}

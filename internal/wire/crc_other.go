//go:build !amd64

package wire

// vpclmulSupported reports false: the vector kernel is amd64 only.
func vpclmulSupported() bool { return false }

// ieeeVPCLMUL is never called off amd64: frameCRCKernel is false there.
func ieeeVPCLMUL(crc uint32, p []byte) uint32 {
	panic("wire: no vector CRC kernel on this architecture")
}

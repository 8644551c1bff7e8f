//go:build amd64 && !purego

package ot

// kernelWith encrypts src into dst through the AES-NI kernel under rk and
// reports true, or reports false on a CPU without AES-NI.
func kernelWith(rk *roundKeys, dst, src []byte) bool {
	if !useAESNI {
		return false
	}
	aesBlocks(rk, dst, src)
	return true
}

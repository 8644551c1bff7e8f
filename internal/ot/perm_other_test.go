//go:build !amd64 || purego

package ot

// kernelWith reports false: this build has no AES kernel.
func kernelWith(*roundKeys, []byte, []byte) bool { return false }

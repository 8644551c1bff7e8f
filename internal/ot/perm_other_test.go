//go:build !amd64 || purego

package ot

// kernelRuns reports false: this build has no AES kernel.
func kernelRuns() bool { return false }

// kernelWith reports false: this build has no AES kernel.
func kernelWith(*roundKeys, []byte, []byte) bool { return false }

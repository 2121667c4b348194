//go:build !linux || arm

// linux/arm is here because its package syscall has no SyncFileRange.

package serve

import "os"

// startWriteback has no portable form: the fsync starts the writeback.
func startWriteback(*os.File) {}

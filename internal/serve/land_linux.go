//go:build !arm

package serve

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE, which package syscall
// does not name: start writeback of the range's dirty pages, wait for
// nothing.
const syncFileRangeWrite = 0x2

// startWriteback hands f's dirty pages (offset 0, length 0: the whole
// file) to the kernel's writeback now instead of when the fsync asks;
// pages already under writeback are left as they are. An error only
// forgoes the head start: the fsync still makes the file durable.
func startWriteback(f *os.File) {
	syscall.SyncFileRange(int(f.Fd()), 0, 0, syncFileRangeWrite)
}

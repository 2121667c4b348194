//go:build linux

package serve

import (
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only and shared — the snapshot is
// immutable once renamed into place, so the pages are backed by the
// page cache and shared across replica processes on one host.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error {
	return syscall.Munmap(b)
}

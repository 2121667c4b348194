//go:build !linux

package serve

import (
	"errors"
	"os"
)

// No mmap here: OpenSnapshot's map attempt fails and segment bytes are
// read into memory with ReadAt instead — the same reader over the same
// bytes, which the differential tests drive on every platform through
// NewSnapshot.

var errNoMmap = errors.New("serve: mmap unsupported on this platform")

func mmapFile(_ *os.File, _ int64) ([]byte, error) { return nil, errNoMmap }

func munmapFile(_ []byte) error { return nil }

//go:build unix && !nommap

// Package mmap maps files read-only into memory. On unix builds the file
// is memory-mapped, so opening costs a few page-table entries regardless
// of size and untouched regions are never read off disk; elsewhere (or
// under the nommap build tag) Open falls back to reading the whole file
// onto the heap, preserving the API so callers need no build tags of
// their own.
//
// A mapping goes when its File is collected, and a slice of Data (or a typed
// view over one) does not keep the File alive. So whatever hands such slices
// out holds the File, and whoever reads them keeps that holder reachable
// until the last read. There are two holders. A cpindex.Mapped keeps views of
// three sections of its container after first touch — the trie's five arrays,
// the sets' token region and (through the shard that owns it) the containment
// signature matrix — and every query goes through it and ends with a
// KeepAlive of the File; what must outlive it (the cpindex.Index of a
// hot-loaded shard or of cpindex.Load, a compaction's merged shard) takes
// clones. A prep.Index
// keeps Sigs and Sketches, and the joins, which copy them out, KeepAlive it.
// Mappings are read-only and a file under one is never rewritten in place
// (writers go through a temp file and a rename), so a view validated once
// stays what was validated.
package mmap

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// Supported reports whether this build actually memory-maps files; when
// false, Open reads files onto the heap and lazy-paging benefits vanish.
const Supported = true

// File is one opened file's contents. Data stays valid until the File is
// garbage-collected or explicitly Closed — a finalizer unmaps the region,
// so holders of Data sub-slices must keep the File reachable (mapped
// memory is invisible to the garbage collector; a sub-slice alone does
// not keep the mapping alive).
type File struct {
	Data   []byte
	mapped []byte
}

// Open maps path read-only.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &File{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmap: %s: file too large to map (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap: %s: %w", path, err)
	}
	mf := &File{Data: data, mapped: data}
	// Unmap on collection rather than demanding explicit lifecycle calls:
	// queries may still be reading mapped pages when a shard leaves the
	// ring, and the last reader's reachability — not a close call — is
	// what actually bounds the mapping's life.
	runtime.SetFinalizer(mf, (*File).Close)
	return mf, nil
}

// Close unmaps the region. Idempotent; only tests and open-error paths
// need it — normal owners let the finalizer run.
func (f *File) Close() error {
	if f.mapped == nil {
		return nil
	}
	m := f.mapped
	f.mapped, f.Data = nil, nil
	runtime.SetFinalizer(f, nil)
	return syscall.Munmap(m)
}

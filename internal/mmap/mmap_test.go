package mmap

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The same tests run against both builds (`go test` and
// `go test -tags=nommap`): the fallback must be indistinguishable to
// callers.

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestContentsEqualFile(t *testing.T) {
	// Larger than a page and not a multiple of one.
	want := make([]byte, 3*os.Getpagesize()+17)
	for i := range want {
		want[i] = byte(i * 31)
	}
	f, err := Open(writeTemp(t, want))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !bytes.Equal(f.Data, want) {
		t.Fatalf("Data (%d bytes) differs from the file (%d bytes)", len(f.Data), len(want))
	}
}

func TestEmptyFile(t *testing.T) {
	f, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatalf("opening an empty file: %v", err)
	}
	if len(f.Data) != 0 {
		t.Fatalf("empty file yields %d bytes", len(f.Data))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleClose(t *testing.T) {
	f, err := Open(writeTemp(t, []byte("payload")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := f.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if f.Data != nil {
		t.Fatal("Data still set after Close")
	}
}

// TestReadAfterUnlink: Save prunes shard files a serving index still has
// mapped (a cold shard's, or the container a hot-loaded one keeps) — the
// contents must outlive the path.
func TestReadAfterUnlink(t *testing.T) {
	want := bytes.Repeat([]byte("unlinked "), 2000)
	path := writeTemp(t, want)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Data, want) {
		t.Fatal("contents changed after the path was unlinked")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent")); !os.IsNotExist(err) {
		t.Fatalf("opening a missing file: err = %v, want not-exist", err)
	}
}

// Package vfs is the filesystem seam of the persistence layer: a small
// interface covering exactly the operations the pattern store performs
// on disk, with two implementations.
//
//   - OS passes every call through to the real filesystem; the
//     production store runs on it and pays one interface dispatch per
//     disk operation.
//   - Fault is a deterministic in-memory filesystem with a failpoint
//     registry: tests can fail the Nth write, truncate a write at byte
//     K, fail a sync, run out of disk space after a byte budget, or
//     crash — freeze the simulated disk — at any numbered step and then
//     reopen the store from the disk image a power cut would have left.
//
// The store is written against FS, so every persistence change is
// testable against injected faults and systematic crash schedules by
// construction (see internal/crashtest).
package vfs

import (
	"io"
	"os"
)

// File is an open file. The store writes journals through it (wrapped in
// a bufio.Writer), replays them through Read, and maintains them with
// Sync/Truncate/Seek. *os.File satisfies it directly.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's written data to stable storage. Data not
	// yet synced may be lost — wholly or partially — by a crash.
	Sync() error
	// Truncate changes the file size.
	Truncate(size int64) error
	// Seek sets the offset for the next Read.
	Seek(offset int64, whence int) (int64, error)
}

// FS is the set of filesystem operations the pattern store performs.
// All paths are passed as the store built them (dir joined with a file
// name); implementations must treat them consistently but need not
// resolve them against a real root.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(dir string) error
	// ReadDir returns the sorted base names of the entries of dir. A
	// missing directory is an error satisfying errors.Is(err,
	// fs.ErrNotExist).
	ReadDir(dir string) ([]string, error)
	// Stat reports whether name exists: nil means it does, an error
	// satisfying errors.Is(err, fs.ErrNotExist) means it does not, and
	// any other error means existence could not be determined — callers
	// must not treat that case as absence.
	Stat(name string) error
	// ReadFile returns the content of name.
	ReadFile(name string) ([]byte, error)
	// Open opens name for reading.
	Open(name string) (File, error)
	// Create creates (or truncates) name for writing.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
}

// OS is the production FS: every call goes to the real filesystem.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

// Stat implements FS.
func (OS) Stat(name string) error {
	_, err := os.Stat(name)
	return err
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Open implements FS.
func (OS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Create implements FS.
func (OS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenAppend implements FS.
func (OS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

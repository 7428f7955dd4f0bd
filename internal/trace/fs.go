package trace

import (
	"io"
	"os"
)

// FS is the narrow filesystem seam the trace store runs on. Production code
// uses OS (the real filesystem); tests inject fault-carrying
// implementations (see ChaosFS) to prove the store degrades gracefully
// under ENOSPC, short writes, torn renames and read errors.
//
// The seam covers exactly the operations the store performs — nothing
// process-wide (working directory, umask) leaks through it. Advisory
// locking (DirLock) intentionally stays on the real OS even when a fake FS
// is injected: flock coordinates real processes, and a simulated lock
// would only prove things about the simulation.
type FS interface {
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// CreateTemp creates a new temp file in dir (pattern as os.CreateTemp)
	// opened for writing.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadDir lists dir, sorted by filename.
	ReadDir(dir string) ([]os.DirEntry, error)
	// Stat describes the named file.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs the directory itself, making a preceding rename
	// durable. Filesystems that cannot sync a directory may no-op.
	SyncDir(dir string) error
}

// File is the handle FS hands out: readable, writable, closable, syncable,
// and able to name itself (temp files are renamed into place by name).
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Name returns the path the file was opened or created under.
	Name() string
}

// OS is the real filesystem: every FS method maps 1:1 onto the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(dir string) error                    { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error)    { return os.ReadDir(dir) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// SyncDir opens the directory and fsyncs it. This is the second half of the
// atomic-write commit protocol: rename makes the new name visible, the
// directory fsync makes it durable — without it a crash after rename can
// roll the directory entry back and silently lose a "committed" capture.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

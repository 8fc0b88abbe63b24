// Package store is the crash-safe durable job store behind ldivd: an
// append-only journal of job state transitions plus content-addressed body
// and result files, all reached through an injectable filesystem seam so
// recovery correctness can be proven with injected faults instead of hoped
// for.
//
// Layout under the store directory:
//
//	journal.log          append-only, CRC-guarded job state transitions
//	bodies/<sha256>      submitted CSV bodies, content-addressed
//	results/<key>.json   result metadata (digests + caller metrics)
//	results/<key>.csv    the released table, byte-exact
//	results/<key>.st.csv anatomy's sensitive table, when present
//
// The durability contract: a journal record is fsync'd before Append
// returns, and every body/result file is written to a temp name, fsync'd,
// and renamed into place (with a directory sync), so a crash leaves either
// the old state or the new state — never a torn file that parses. Corrupt
// or truncated data found on open is quarantined and reported, never fatal.
package store

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// File is the writable-file surface the store needs: sequential writes, an
// explicit barrier, and close.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage.
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations the store performs, so tests can
// inject faults (failed syncs, short writes, vanished files) at every point
// a real disk could fail. The production implementation is OSFS.
type FS interface {
	MkdirAll(path string) error
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Create opens path for writing from scratch, truncating any old content.
	Create(path string) (File, error)
	ReadFile(path string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Stat(path string) (fs.FileInfo, error)
	// Truncate shortens path to size bytes (journal tail repair).
	Truncate(path string, size int64) error
	// SyncDir flushes a directory's entries to stable storage, making a
	// preceding Rename durable.
	SyncDir(path string) error
}

// OSFS is the production FS backed by the os package.
type OSFS struct{}

func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeFileAtomic writes data to path via a temp file in the same directory:
// write, fsync, rename, fsync the directory. A crash at any point leaves
// either no file at path or the complete new content. Each write gets its
// own temp name, so concurrent writes of one path (two submissions of one
// body, two jobs finishing under one key) never rename each other's file.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, ".tmp-"+filepath.Base(path)+"-"+strconv.FormatUint(s.tmpSeq.Add(1), 10))
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	return s.fs.SyncDir(dir)
}

package profstore

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path durably: it stages the bytes in
// a temp file in path's directory, fsyncs it, renames it over path and
// fsyncs the directory. Readers, and a restart after a crash, see
// either the old file or the complete new one, never a truncated one;
// a failed write leaves no temp file behind.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".hbbprof-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

package run

import (
	"errors"
	"io"
	"os"

	"dsmc/internal/store"
)

// CkptStore is where a replica job persists its checkpoint bytes. Run's
// jobs store to a file in the sweep's checkpoint directory; the
// distributed worker uploads to the coordinator, which stores the upload
// to the same file. Whatever the medium, Save must be atomic from the
// reader's point of view: Load returns either a previously completed
// Save or nothing, never a torn prefix. (The
// checksum trailer inside the checkpoint catches media that break this
// promise anyway — loadCheckpoint falls back to a fresh run.) A store
// that can take a checkpoint as it is encoded also implements
// CkptStreamer, and the job then holds no checkpoint-sized buffer.
type CkptStore interface {
	// Load returns the last saved checkpoint, or nil when none exists.
	Load() ([]byte, error)
	// Save durably replaces the checkpoint. It must not retain data
	// after it returns: the job encodes its next checkpoint into the
	// same buffer.
	Save(data []byte) error
	// Discard removes a checkpoint found corrupt or stale so it is not
	// re-read; losing it only costs recomputation.
	Discard() error
}

// CkptStreamer is the optional streaming half of a CkptStore: SaveStream
// durably replaces the checkpoint with what write writes, under Save's
// atomicity. write streams the checkpoint from the job's live state to
// the io.Writer it is given and returns the first error that writer
// reported. The job is blocked inside SaveStream, so its state does not
// change while it runs: a store may call write more than once (a retried
// upload) and gets the same bytes each time, but must not call it after
// SaveStream returns.
type CkptStreamer interface {
	SaveStream(write func(io.Writer) error) error
}

// FileCkptStore persists checkpoints to one file with the
// write-temp/fsync/rename discipline, so neither a process crash
// mid-write nor a host crash around the rename can replace a good
// checkpoint with a torn one.
type FileCkptStore struct {
	Path string
}

// Load reads the checkpoint, cleaning up an orphaned temp file a crash
// mid-Save may have left behind (the rename never happened, so the temp
// holds an incomplete write that must not survive into later saves).
func (s FileCkptStore) Load() ([]byte, error) {
	os.Remove(s.Path + ".tmp")
	data, err := os.ReadFile(s.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// Save implements CkptStore.
func (s FileCkptStore) Save(data []byte) error {
	return s.SaveStream(func(w io.Writer) error { _, err := w.Write(data); return err })
}

// SaveStream implements CkptStreamer: the checkpoint streams into the
// temp file, which is fsynced and renamed over the last one.
func (s FileCkptStore) SaveStream(write func(io.Writer) error) error {
	return store.AtomicWrite(s.Path, write)
}

// Discard implements CkptStore.
func (s FileCkptStore) Discard() error {
	err := os.Remove(s.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

package ckpt

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// snapshot file names: ckpt-<16 hex digits of seq>.l1. Lexicographic
// order equals sequence order, which keeps directory listings readable.
const (
	filePrefix = "ckpt-"
	fileSuffix = ".l1"
)

// DiskSink persists snapshots as framed files in one directory, with
// crash-safe publication and bounded retention.
//
// Store is atomic against crashes (WriteFileAtomic), so a reader
// (including a post-crash LoadNewest) only ever sees complete
// rename-published files — a torn write leaves a tmp file the sink
// ignores. After publishing, snapshots beyond Retain are pruned
// oldest-first.
type DiskSink struct {
	dir    string
	retain int
}

// NewDiskSink opens (creating if needed) dir as a snapshot directory,
// retaining the newest retain snapshots (minimum 1).
func NewDiskSink(dir string, retain int) (*DiskSink, error) {
	if retain < 1 {
		retain = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating snapshot dir: %w", err)
	}
	return &DiskSink{dir: dir, retain: retain}, nil
}

// Dir returns the snapshot directory.
func (d *DiskSink) Dir() string { return d.dir }

// fileName renders the snapshot file name for seq.
func fileName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", filePrefix, seq, fileSuffix)
}

// parseSeq extracts the sequence number from a snapshot file name,
// reporting ok=false for anything that is not one.
func parseSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Store implements Sink: frame → atomic publish → prune.
func (d *DiskSink) Store(seq uint64, payload []byte) error {
	final := filepath.Join(d.dir, fileName(seq))
	if err := WriteFileAtomic(final, Encode(payload)); err != nil {
		return fmt.Errorf("ckpt: publishing %s: %w", final, err)
	}
	d.prune()
	return nil
}

// WriteFileAtomic publishes data at path so that a crash leaves either
// the file that was there before or the complete new one, never a torn
// one. data goes to a temporary file in path's directory, which is
// fsynced and renamed into place; the directory is then fsynced so the
// rename itself survives a power cut. The directory fsync is best
// effort: some filesystems refuse it, and the rename is atomic against
// process crashes without it. A crash mid-write can leave the temporary
// file ("." + the base name + "-*.tmp") behind; directory listings
// ignore it.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// list returns the sequence numbers of every published snapshot file,
// newest first.
func (d *DiskSink) list() ([]uint64, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: listing snapshot dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// prune removes snapshots beyond the retention budget, oldest first.
// Errors are logged, not fatal: a failed prune costs disk, not
// correctness.
func (d *DiskSink) prune() {
	seqs, err := d.list()
	if err != nil {
		slog.Warn("checkpoint prune: listing failed", "err", err)
		return
	}
	for _, seq := range seqs[min(len(seqs), d.retain):] {
		path := filepath.Join(d.dir, fileName(seq))
		if err := os.Remove(path); err != nil {
			slog.Warn("checkpoint prune failed", "path", path, "err", err)
		}
	}
}

// LoadNewest implements Sink: it walks published snapshots newest
// first, returning the first one whose frame validates. Invalid
// snapshots — truncated by a crash, corrupted on disk — are skipped
// with a logged reason, so one bad file costs at most one checkpoint
// interval of progress, never the resume.
func (d *DiskSink) LoadNewest() ([]byte, uint64, error) {
	seqs, err := d.list()
	if err != nil {
		return nil, 0, err
	}
	for _, seq := range seqs {
		path := filepath.Join(d.dir, fileName(seq))
		frame, err := os.ReadFile(path)
		if err != nil {
			slog.Warn("checkpoint skipped: unreadable", "path", path, "err", err)
			continue
		}
		payload, err := Decode(frame)
		if err != nil {
			slog.Warn("checkpoint skipped: invalid frame", "path", path, "reason", err)
			continue
		}
		return payload, seq, nil
	}
	return nil, 0, nil
}

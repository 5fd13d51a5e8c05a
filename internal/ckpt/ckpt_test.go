package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 4096)} {
		frame := Encode(payload)
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("Decode(Encode(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes changed the payload", len(payload))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte("snapshot"), 100)
	frame := Encode(payload)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"short header", func(f []byte) []byte { return f[:headerSize-1] }},
		{"empty", func(f []byte) []byte { return nil }},
		{"bad magic", func(f []byte) []byte { f[0] ^= 0xFF; return f }},
		{"truncated payload", func(f []byte) []byte { return f[:len(f)-10] }},
		{"trailing junk", func(f []byte) []byte { return append(f, 0x00) }},
		{"flipped payload bit", func(f []byte) []byte { f[headerSize+5] ^= 0x01; return f }},
		{"flipped checksum bit", func(f []byte) []byte { f[len(magic)+8] ^= 0x01; return f }},
		{"absurd declared length", func(f []byte) []byte {
			for i := 0; i < 8; i++ {
				f[len(magic)+i] = 0xFF
			}
			return f
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.mutate(append([]byte(nil), frame...))
			if _, err := Decode(f); err == nil {
				t.Fatalf("Decode accepted a frame with %s", tc.name)
			}
		})
	}
}

// corruptFile rewrites the snapshot file for seq with arbitrary bytes,
// bypassing the sink (simulating on-disk damage).
func corruptFile(t *testing.T, dir string, seq uint64, content []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, fileName(seq)), content, 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncateFile cuts the snapshot file for seq to n bytes (a torn write).
func truncateFile(t *testing.T, dir string, seq uint64, n int64) {
	t.Helper()
	if err := os.Truncate(filepath.Join(dir, fileName(seq)), n); err != nil {
		t.Fatal(err)
	}
}

// TestDiskSinkResume is the table-driven resume matrix: each case
// arranges a snapshot directory state a crashed or misbehaving daemon
// could leave behind and asserts which snapshot (if any) LoadNewest
// hands back.
func TestDiskSinkResume(t *testing.T) {
	snap := func(i byte) []byte { return bytes.Repeat([]byte{i}, 64) }
	cases := []struct {
		name     string
		arrange  func(t *testing.T, d *DiskSink)
		wantSeq  uint64
		wantBlob []byte // nil = expect no snapshot
	}{
		{
			name:    "zero snapshots",
			arrange: func(t *testing.T, d *DiskSink) {},
		},
		{
			name: "single valid snapshot",
			arrange: func(t *testing.T, d *DiskSink) {
				if err := d.Store(1, snap(1)); err != nil {
					t.Fatal(err)
				}
			},
			wantSeq: 1, wantBlob: snap(1),
		},
		{
			name: "newest wins over older valid",
			arrange: func(t *testing.T, d *DiskSink) {
				for seq := uint64(1); seq <= 3; seq++ {
					if err := d.Store(seq, snap(byte(seq))); err != nil {
						t.Fatal(err)
					}
				}
			},
			wantSeq: 3, wantBlob: snap(3),
		},
		{
			name: "truncated newest falls back to older valid",
			arrange: func(t *testing.T, d *DiskSink) {
				if err := d.Store(1, snap(1)); err != nil {
					t.Fatal(err)
				}
				if err := d.Store(2, snap(2)); err != nil {
					t.Fatal(err)
				}
				truncateFile(t, d.Dir(), 2, 10)
			},
			wantSeq: 1, wantBlob: snap(1),
		},
		{
			name: "zero-length newest (crash before any write) falls back",
			arrange: func(t *testing.T, d *DiskSink) {
				if err := d.Store(1, snap(1)); err != nil {
					t.Fatal(err)
				}
				corruptFile(t, d.Dir(), 2, nil)
			},
			wantSeq: 1, wantBlob: snap(1),
		},
		{
			name: "bit-rotted newest falls back",
			arrange: func(t *testing.T, d *DiskSink) {
				if err := d.Store(1, snap(1)); err != nil {
					t.Fatal(err)
				}
				if err := d.Store(2, snap(2)); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(d.Dir(), fileName(2))
				frame, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				frame[len(frame)-1] ^= 0x01
				if err := os.WriteFile(path, frame, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSeq: 1, wantBlob: snap(1),
		},
		{
			name: "every snapshot invalid means no resume",
			arrange: func(t *testing.T, d *DiskSink) {
				corruptFile(t, d.Dir(), 1, []byte("not a frame"))
				corruptFile(t, d.Dir(), 2, []byte(magic)) // header cut short
			},
		},
		{
			name: "leftover tmp file from a torn Store is ignored",
			arrange: func(t *testing.T, d *DiskSink) {
				if err := d.Store(1, snap(1)); err != nil {
					t.Fatal(err)
				}
				tmp := filepath.Join(d.Dir(), fileName(9)+".tmp")
				if err := os.WriteFile(tmp, []byte("half a frame"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSeq: 1, wantBlob: snap(1),
		},
		{
			name: "foreign files in the directory are ignored",
			arrange: func(t *testing.T, d *DiskSink) {
				if err := d.Store(4, snap(4)); err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"README", "ckpt-zz.l1", "ckpt-0001.l1"} {
					if err := os.WriteFile(filepath.Join(d.Dir(), name), []byte("x"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			},
			wantSeq: 4, wantBlob: snap(4),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDiskSink(filepath.Join(t.TempDir(), "snaps"), 10)
			if err != nil {
				t.Fatal(err)
			}
			tc.arrange(t, d)
			blob, seq, err := d.LoadNewest()
			if err != nil {
				t.Fatalf("LoadNewest: %v", err)
			}
			if tc.wantBlob == nil {
				if blob != nil || seq != 0 {
					t.Fatalf("LoadNewest = (%d bytes, seq %d), want none", len(blob), seq)
				}
				return
			}
			if seq != tc.wantSeq {
				t.Fatalf("LoadNewest seq = %d, want %d", seq, tc.wantSeq)
			}
			if !bytes.Equal(blob, tc.wantBlob) {
				t.Fatalf("LoadNewest payload mismatch for seq %d", seq)
			}
		})
	}
}

func TestDiskSinkRetention(t *testing.T) {
	d, err := NewDiskSink(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		if err := d.Store(seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := d.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 8 || seqs[2] != 6 {
		t.Fatalf("after retention, have seqs %v, want [8 7 6]", seqs)
	}
	blob, seq, err := d.LoadNewest()
	if err != nil || seq != 8 || len(blob) != 1 || blob[0] != 8 {
		t.Fatalf("LoadNewest after prune = (%v, %d, %v), want snapshot 8", blob, seq, err)
	}
}

func TestMemSink(t *testing.T) {
	m := NewMemSink()
	if blob, seq, err := m.LoadNewest(); blob != nil || seq != 0 || err != nil {
		t.Fatalf("empty MemSink.LoadNewest = (%v, %d, %v)", blob, seq, err)
	}
	if err := m.Store(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	m.Corrupt(2, 5)
	blob, seq, err := m.LoadNewest()
	if err != nil || seq != 1 || string(blob) != "a" {
		t.Fatalf("LoadNewest with corrupt newest = (%q, %d, %v), want (a, 1)", blob, seq, err)
	}
	m.FailStore = errors.New("disk full")
	if err := m.Store(3, []byte("c")); err == nil {
		t.Fatal("FailStore not honored")
	}
}

// TestWriteFileAtomic: a publish replaces the previous file whole and
// leaves no temporary file behind; a failed one (missing directory)
// leaves nothing at all.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frame")
	for _, data := range []string{"first version", "v2"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("after publishing %q: read %q (%v)", data, got, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only the published file", len(entries), err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "frame"), []byte("x")); err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
}

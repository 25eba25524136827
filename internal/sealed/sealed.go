// Package sealed is the one codec for every checksummed file this module
// writes. The durable store's RR segments, graph-delta segments and
// bottom-k sketch files, and the segmented graph (.dsg), share three
// things through it instead of hand-rolling each:
//
//   - the publish path (Stage, Commit, Publish): a temp file beside the
//     target, fsync, rename over the target, fsync the directory. A crash
//     at any point leaves the old file or the new one, never a partial
//     one;
//   - the verify ladder of a sealed file (Kind.Open, Kind.ReadFile): size,
//     CRC32C, magic, version, then what the manifest recorded, cheapest
//     rung first;
//   - the one corruption error, *Error, whose Cause names the rung that
//     failed.
//
// A sealed file is one little-endian blob:
//
//	offset  size  field
//	0       4     magic
//	4       4     format version
//	8       h     the artifact's own fixed header (Kind.Header bytes)
//	8+h     ...   payload
//	end-4   4     CRC32C over every byte before it
//
// The segmented graph is not a sealed file: it checksums each section per
// MiB block so a mapped graph opens without reading its payload. It still
// publishes through Stage and Commit and reports damage as an *Error, as
// do the cluster's checksummed network frames.
package sealed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dimm/internal/checksum"
)

const (
	prefixSize = 8 // magic + version
	footerSize = 4 // CRC32C
)

// The causes an *Error carries, one per rung of the verify ladder. Match
// them with errors.Is.
var (
	// ErrTruncated: the file is not the size its manifest or its own
	// framing declares, an interrupted or clipped write.
	ErrTruncated = errors.New("truncated")
	// ErrChecksum: a CRC32C does not match the bytes it covers, a flipped
	// bit.
	ErrChecksum = errors.New("CRC32C mismatch")
	// ErrFormat: the bytes are intact but are not the declared artifact
	// (wrong magic, or a header or payload that does not decode), usually
	// a foreign file.
	ErrFormat = errors.New("malformed")
	// ErrVersion: an intact artifact in a format version this build does
	// not read.
	ErrVersion = errors.New("unsupported format version")
	// ErrStale: an intact file that disagrees with the manifest listing
	// it, or a file the manifest lists that is not there.
	ErrStale = errors.New("disagrees with its manifest")
)

// Error is the one corruption error for every checksummed artifact,
// on disk or on the wire.
type Error struct {
	Artifact string // "segment", "delta", "sketch", "manifest", "graph" or "frame"
	Path     string // the file, or the peer of a network frame; empty for an in-memory blob
	// Section and Block locate the damage inside a sectioned file (the
	// segmented graph): the section name or "header", and the payload
	// block within the section, -1 for its CRC trailer. Section is empty
	// for a sealed file.
	Section string
	Block   int
	Cause   error // one of the Err* causes above
	Detail  string
}

func (e *Error) Error() string {
	var b strings.Builder
	b.WriteString(e.Artifact)
	if e.Path != "" {
		b.WriteString(" " + e.Path)
	}
	switch {
	case e.Section == "":
	case e.Section == "header":
		b.WriteString(" header")
	case e.Block < 0:
		fmt.Fprintf(&b, " section %s CRC trailer", e.Section)
	default:
		fmt.Fprintf(&b, " section %s block %d", e.Section, e.Block)
	}
	fmt.Fprintf(&b, ": %v", e.Cause)
	if e.Detail != "" {
		b.WriteString(": " + e.Detail)
	}
	return b.String()
}

func (e *Error) Unwrap() error { return e.Cause }

// Corrupt builds the *Error for a whole-file artifact.
func Corrupt(artifact, path string, cause error, format string, args ...any) *Error {
	return &Error{Artifact: artifact, Path: path, Cause: cause, Detail: fmt.Sprintf(format, args...)}
}

// Kind describes one sealed artifact type.
type Kind struct {
	Name    string // names the artifact in errors
	Magic   uint32
	Version uint32
	Header  int // bytes of the artifact's fixed header after magic and version
}

// Size returns the sealed size of a file carrying payload bytes.
func (k Kind) Size(payload int) int { return prefixSize + k.Header + payload + footerSize }

// Begin starts a sealed file: a buffer holding the magic and version, with
// room for the header, payload bytes and the footer. The caller appends
// its header and payload, then calls Seal.
func (k Kind) Begin(payload int) []byte {
	buf := make([]byte, prefixSize, k.Size(payload))
	binary.LittleEndian.PutUint32(buf[0:], k.Magic)
	binary.LittleEndian.PutUint32(buf[4:], k.Version)
	return buf
}

// Seal appends the CRC32C footer to a buffer Begin started and returns the
// sealed bytes and the CRC a manifest records for them.
func Seal(buf []byte) ([]byte, uint32) {
	crc := checksum.Sum(buf)
	return binary.LittleEndian.AppendUint32(buf, crc), crc
}

// Footer returns the CRC32C footer of a sealed blob.
func Footer(data []byte) uint32 { return binary.LittleEndian.Uint32(data[len(data)-footerSize:]) }

// Open runs the in-memory rungs of the verify ladder on a sealed blob:
// long enough for the framing (ErrTruncated), CRC32C footer
// (ErrChecksum), magic (ErrFormat), version (ErrVersion). It returns the
// artifact's header and payload, which alias data; a non-nil err is
// always an *Error with Path unset.
func (k Kind) Open(data []byte) (header, payload []byte, err error) {
	if need := k.Size(0); len(data) < need {
		return nil, nil, Corrupt(k.Name, "", ErrTruncated, "%d bytes, the framing alone needs %d", len(data), need)
	}
	body := data[:len(data)-footerSize]
	if want, got := Footer(data), checksum.Sum(body); got != want {
		return nil, nil, Corrupt(k.Name, "", ErrChecksum, "footer %#x, computed %#x", want, got)
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != k.Magic {
		return nil, nil, Corrupt(k.Name, "", ErrFormat, "magic %#x, want %#x", m, k.Magic)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != k.Version {
		return nil, nil, Corrupt(k.Name, "", ErrVersion, "version %d, this build reads %d", v, k.Version)
	}
	return body[prefixSize : prefixSize+k.Header], body[prefixSize+k.Header:], nil
}

// ReadFile reads the sealed file at path, which a manifest recorded as
// size bytes with footer CRC crc, and runs the whole ladder: a missing
// file is ErrStale, a size the manifest did not record ErrTruncated, then
// Open's rungs, and last a footer the manifest did not record ErrStale.
func (k Kind) ReadFile(path string, size int64, crc uint32) (header, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, Corrupt(k.Name, path, ErrStale, "listed in the manifest but missing")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	if int64(len(data)) != size {
		return nil, nil, Corrupt(k.Name, path, ErrTruncated, "%d bytes, manifest recorded %d", len(data), size)
	}
	header, payload, err = k.Open(data)
	if err != nil {
		err.(*Error).Path = path
		return nil, nil, err
	}
	if got := Footer(data); got != crc {
		return nil, nil, Corrupt(k.Name, path, ErrStale, "footer CRC %#x, manifest recorded %#x", got, crc)
	}
	return header, payload, nil
}

// Staged is a file being written under a temporary name beside the path
// Commit publishes it to.
type Staged struct {
	*os.File
	path string
}

// Stage creates the temp file a publish to path writes first. Its name
// contains ".tmp-", which store tooling treats as crash debris.
func Stage(path string) (*Staged, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("sealed: staging %s: %w", path, err)
	}
	return &Staged{File: f, path: path}, nil
}

// Commit makes the staged bytes durable under the final path: fsync,
// close, rename over the path, fsync the directory. On failure the temp
// file is removed and whatever was at the path is untouched.
func (s *Staged) Commit() error {
	err := s.Sync()
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(s.Name(), s.path)
	}
	if err != nil {
		os.Remove(s.Name())
		return fmt.Errorf("sealed: publishing %s: %w", s.path, err)
	}
	d, err := os.Open(filepath.Dir(s.path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("sealed: syncing the directory of %s: %w", s.path, err)
	}
	return nil
}

// Abort discards the staged file.
func (s *Staged) Abort() {
	s.Close()
	os.Remove(s.Name())
}

// Publish durably replaces the file at path with data.
func Publish(path string, data []byte) error {
	s, err := Stage(path)
	if err != nil {
		return err
	}
	if _, err := s.Write(data); err != nil {
		s.Abort()
		return fmt.Errorf("sealed: writing %s: %w", path, err)
	}
	return s.Commit()
}

package sealed

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var testKind = Kind{Name: "test", Magic: 0x54534554, Version: 3, Header: 2}

func TestSealOpenRoundTrip(t *testing.T) {
	buf := testKind.Begin(3)
	buf = append(buf, 'h', 'h', 'p', 'a', 'y')
	data, crc := Seal(buf)
	if len(data) != testKind.Size(3) || cap(data) != len(data) {
		t.Fatalf("sealed %d bytes (cap %d), Size says %d", len(data), cap(data), testKind.Size(3))
	}
	if Footer(data) != crc {
		t.Fatalf("Footer %#x, Seal returned %#x", Footer(data), crc)
	}
	hdr, payload, err := testKind.Open(data)
	if err != nil || string(hdr) != "hh" || string(payload) != "pay" {
		t.Fatalf("Open = %q, %q, %v", hdr, payload, err)
	}
	path := filepath.Join(t.TempDir(), "x")
	if err := Publish(path, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := testKind.ReadFile(path, int64(len(data)), crc); err != nil {
		t.Fatal(err)
	}
	// Another kind's bytes are intact but foreign.
	other := testKind
	other.Magic++
	if _, _, err := other.Open(data); !errors.Is(err, ErrFormat) {
		t.Fatalf("foreign magic: got %v, want ErrFormat", err)
	}
}

// TestPublishLeavesNoDebris: a publish replaces the target whole, and a
// staged file that is aborted or committed leaves no temp file behind.
func TestPublishLeavesNoDebris(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, data := range [][]byte{[]byte("first, longer"), []byte("second")} {
		if err := Publish(path, data); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	s, err := Stage(path)
	if err != nil {
		t.Fatal(err)
	}
	s.WriteString("never published")
	s.Abort()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "f" {
		t.Fatalf("directory holds %v, want only f", ents)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("aborted stage changed the target to %q", got)
	}
}

func TestErrorNamesWhere(t *testing.T) {
	for _, c := range []struct {
		err  *Error
		want string
	}{
		{Corrupt("segment", "d/seg-000001.rr", ErrTruncated, "5 bytes"), "segment d/seg-000001.rr: truncated: 5 bytes"},
		{&Error{Artifact: "graph", Path: "g.dsg", Section: "header", Cause: ErrChecksum}, "graph g.dsg header: CRC32C mismatch"},
		{&Error{Artifact: "graph", Path: "g.dsg", Section: "inAdj", Block: 3, Cause: ErrChecksum}, "graph g.dsg section inAdj block 3: CRC32C mismatch"},
		{&Error{Artifact: "graph", Path: "g.dsg", Section: "outAdj", Block: -1, Cause: ErrChecksum}, "graph g.dsg section outAdj CRC trailer: CRC32C mismatch"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
	}
}

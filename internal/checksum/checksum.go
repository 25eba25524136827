// Package checksum is the CRC32C (Castagnoli) helper shared by the
// sealed-file codec (internal/sealed), the segmented graph's block CRCs
// and the cluster wire protocol (fetch-payload integrity trailers).
// Castagnoli is chosen over
// IEEE because amd64 and arm64 both execute it in hardware, so sealing a
// multi-hundred-megabyte checkpoint segment costs a small fraction of
// the write itself.
package checksum

import "hash/crc32"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum returns the CRC32C checksum of b.
func Sum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Update extends crc with the bytes of b, so large payloads can be
// checksummed in chunks without concatenation.
func Update(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

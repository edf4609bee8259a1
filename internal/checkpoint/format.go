package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	fileMagic = "APCKPT"
	// FormatVersion is the checkpoint format this build reads and writes.
	// v2 appended the rule-delta sequence cursor to META so a restored
	// server resumes the /rules/batch firehose idempotently.
	FormatVersion uint16 = 2
)

// Section names, in the exact order they appear in a file.
var sectionOrder = []string{"META", "DSET", "PRED", "BDDS", "TREE", "TOPO", "END "}

// payloadChunk bounds how much a single allocation step commits to a
// section payload: a hostile 4-byte length must not allocate gigabytes
// before the stream proves it actually carries that many bytes.
const payloadChunk = 1 << 20

// writeSection frames one section: name, length, payload, CRC32 (IEEE)
// over name and payload together, so a corrupted name is as detectable
// as a corrupted body.
func writeSection(w *bufio.Writer, name string, payload []byte) error {
	if len(name) != 4 {
		panic("checkpoint: section name must be 4 bytes")
	}
	if _, err := w.WriteString(name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	crc := crc32.ChecksumIEEE([]byte(name))
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	return binary.Write(w, binary.LittleEndian, crc)
}

// readSection reads the next section, verifies its CRC, and checks it is
// the expected one — the format has a fixed section order, so any other
// name means a malformed or reordered file.
func readSection(br *bufio.Reader, want string) ([]byte, error) {
	name := make([]byte, 4)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: reading section header (expected %q)", ErrTruncated, want)
	}
	if string(name) != want {
		return nil, fmt.Errorf("%w: section %q where %q expected", ErrMalformed, name, want)
	}
	var length uint32
	if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
		return nil, fmt.Errorf("%w: section %q length", ErrTruncated, want)
	}
	payload := make([]byte, 0, minInt(int(length), payloadChunk))
	for remaining := int(length); remaining > 0; {
		n := minInt(remaining, payloadChunk)
		start := len(payload)
		payload = append(payload, make([]byte, n)...)
		if _, err := io.ReadFull(br, payload[start:]); err != nil {
			return nil, fmt.Errorf("%w: section %q payload (%d of %d bytes short)", ErrTruncated, want, remaining, length)
		}
		remaining -= n
	}
	var crc uint32
	if err := binary.Read(br, binary.LittleEndian, &crc); err != nil {
		return nil, fmt.Errorf("%w: section %q checksum", ErrTruncated, want)
	}
	sum := crc32.ChecksumIEEE(name)
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if sum != crc {
		return nil, fmt.Errorf("%w: section %q (stored %08x, computed %08x)", ErrCorrupt, want, crc, sum)
	}
	return payload, nil
}

// cursor is a bounds-checked reader over one section payload. Overruns
// are ErrMalformed, not ErrTruncated: the payload passed its CRC, so a
// structure extending past it is an encoding bug or forged content, not
// a short file.
type cursor struct {
	section string
	b       []byte
	off     int
}

func (c *cursor) need(n int) error {
	if c.off+n > len(c.b) {
		return fmt.Errorf("%w: section %q record at offset %d overruns payload (%d bytes)",
			ErrMalformed, c.section, c.off, len(c.b))
	}
	return nil
}

func (c *cursor) u8() (byte, error) {
	if err := c.need(1); err != nil {
		return 0, err
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if err := c.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) i32() (int32, error) {
	v, err := c.u32()
	return int32(v), err
}

func (c *cursor) u64() (uint64, error) {
	if err := c.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

// remaining reports unread payload bytes; decoders use it to bound
// count-prefixed allocations by what the payload can actually hold.
func (c *cursor) remaining() int { return len(c.b) - c.off }

// done rejects trailing garbage after the last expected record.
func (c *cursor) done() error {
	if c.off != len(c.b) {
		return fmt.Errorf("%w: section %q has %d trailing bytes", ErrMalformed, c.section, len(c.b)-c.off)
	}
	return nil
}

// sectionWriter accumulates one payload; the u32/i32/u64 helpers mirror
// the cursor so encode and decode read as the same schema.
type sectionWriter struct {
	b []byte
}

func (s *sectionWriter) u8(v byte) { s.b = append(s.b, v) }
func (s *sectionWriter) u32(v uint32) {
	s.b = binary.LittleEndian.AppendUint32(s.b, v)
}
func (s *sectionWriter) i32(v int32) { s.u32(uint32(v)) }
func (s *sectionWriter) u64(v uint64) {
	s.b = binary.LittleEndian.AppendUint64(s.b, v)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

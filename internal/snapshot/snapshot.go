// Package snapshot serializes a profile's durable state — the banked hot
// data streams a grammar-budget cycle history has accumulated, plus the
// supervisor's accuracy baseline — so a profiling service can checkpoint a
// tenant to disk and warm-start from it after a restart instead of
// relearning from zero (the PGO "feed the profile back into the next run"
// loop, applied at runtime).
//
// The format extends internal/tracefile's fuzz-hardened framing idiom: an
// 8-byte header ("HDSSNP" + format version + flags), a varint section count,
// then length-prefixed sections each carrying a section id, a payload, and a
// CRC32C (Castagnoli) of that payload. Unknown section ids are skipped
// forward-compatibly (their length is known and their checksum still
// verified); missing required sections, duplicate sections, trailing bytes,
// and implausible counts are corruption. Every load-path failure maps to one
// of the typed sentinel errors below, so callers can prove (and count) that
// a stale, truncated, or bit-flipped snapshot degrades to cold profiling
// instead of crashing or misleading the prefetcher.
//
// All counts are attacker-controlled: decoding never allocates more than a
// bounded chunk ahead of the bytes actually read, mirroring tracefile.Read.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hotprefetch/internal/ref"
)

// Format identity. The version byte participates in the header check:
// decoding a snapshot written by a future format version fails with
// ErrVersion, never a misparse.
const (
	formatVersion = 1
	headerLen     = 8
)

var magicPrefix = [6]byte{'H', 'D', 'S', 'S', 'N', 'P'}

// Section ids. New sections get fresh ids; old readers skip them.
const (
	sectionMeta     = 1 // generation counter + creation timestamp
	sectionStreams  = 2 // banked hot streams with heats
	sectionBaseline = 3 // supervisor accuracy baseline
)

// Decode bounds. A 20-byte file can claim 2^60 streams; nothing is
// pre-allocated from a declared count beyond these caps, and counts above
// them are rejected as corrupt outright.
const (
	maxSections    = 64
	maxSectionLen  = 1 << 26 // 64 MiB per section payload
	maxStreams     = 1 << 20
	maxStreamRefs  = 1 << 16
	allocChunkRefs = 1 << 12 // decode-side growth granularity
)

// Typed load-path failures. Every error Read and ReadInfo return wraps
// exactly one of these, so callers can classify without string matching.
var (
	// ErrBadMagic: the header does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic")

	// ErrVersion: the magic matched but the format version is not one this
	// reader understands (version skew).
	ErrVersion = errors.New("snapshot: unsupported format version")

	// ErrChecksum: a section's payload did not match its CRC32C.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")

	// ErrTruncated: the stream ended before the structure the header and
	// section framing promised.
	ErrTruncated = errors.New("snapshot: truncated")

	// ErrCorrupt: structurally impossible content — counts beyond the
	// format's bounds, duplicate or missing required sections, zero-length
	// streams, trailing bytes after the last section.
	ErrCorrupt = errors.New("snapshot: corrupt")
)

// IsFormatError reports whether err is (or wraps) one of the snapshot
// format's typed load failures — the classification the service's
// snapshot_load_failures accounting keys on.
func IsFormatError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) ||
		errors.Is(err, ErrChecksum) || errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrCorrupt)
}

// castagnoli is the CRC32C table (iSCSI polynomial), hardware-accelerated on
// amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Baseline is the supervisor accuracy baseline captured at snapshot time:
// the matcher's cumulative issued/hit prefetch counters. A warm-started
// supervisor reports it as its accuracy until its first live window
// concludes. Valid distinguishes "no supervisor was attached" from
// an all-zero baseline.
type Baseline struct {
	Valid  bool
	Issued uint64
	Hits   uint64
}

// Accuracy returns the baseline's hits/issued ratio (0 when nothing was
// issued or the baseline is absent).
func (b Baseline) Accuracy() float64 {
	if !b.Valid || b.Issued == 0 {
		return 0
	}
	return float64(b.Hits) / float64(b.Issued)
}

// Profile is a decoded snapshot: the durable state one profile carries
// across a restart.
type Profile struct {
	// Generation is the monotonic checkpoint counter; a writer refuses to
	// overwrite a snapshot file whose header carries a generation at or
	// above the one it is about to write.
	Generation uint64

	// CreatedAt is the encoding wall time in Unix nanoseconds.
	CreatedAt int64

	// Streams are the banked hot streams, hottest first, exactly as the
	// profile's BankedStreams reports them.
	Streams []ref.Stream

	// Baseline is the supervisor accuracy baseline (zero when none was
	// attached at snapshot time).
	Baseline Baseline
}

// Info is the cheap header view ReadInfo decodes: enough to compare
// generations without materializing the stream payload.
type Info struct {
	Generation uint64
	CreatedAt  int64
}

// Write encodes p to w. It validates the same bounds Read enforces, so any
// profile Write accepts round-trips through Read.
func Write(w io.Writer, p *Profile) error {
	if len(p.Streams) > maxStreams {
		return fmt.Errorf("snapshot: encode: %d streams exceeds the format bound %d", len(p.Streams), maxStreams)
	}
	var payload bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(buf *bytes.Buffer, v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	putVarint := func(buf *bytes.Buffer, v int64) {
		n := binary.PutVarint(scratch[:], v)
		buf.Write(scratch[:n])
	}

	bw := bufio.NewWriter(w)
	header := [headerLen]byte{}
	copy(header[:], magicPrefix[:])
	header[6] = formatVersion
	header[7] = 0 // flags, reserved
	if _, err := bw.Write(header[:]); err != nil {
		return err
	}
	sections := 2 // meta + streams
	if p.Baseline.Valid {
		sections++
	}
	putUvarint(&payload, uint64(sections))
	if _, err := bw.Write(payload.Bytes()); err != nil {
		return err
	}

	writeSection := func(id uint64, body []byte) error {
		var head bytes.Buffer
		putUvarint(&head, id)
		putUvarint(&head, uint64(len(body)))
		if _, err := bw.Write(head.Bytes()); err != nil {
			return err
		}
		if _, err := bw.Write(body); err != nil {
			return err
		}
		// The checksum covers the section header as well as the payload, so a
		// bit flip in the id or length can never silently reframe or drop a
		// section — it fails as ErrChecksum like any payload flip.
		var crc [4]byte
		sum := crc32.Update(0, castagnoli, head.Bytes())
		sum = crc32.Update(sum, castagnoli, body)
		binary.LittleEndian.PutUint32(crc[:], sum)
		_, err := bw.Write(crc[:])
		return err
	}

	payload.Reset()
	putUvarint(&payload, p.Generation)
	putVarint(&payload, p.CreatedAt)
	if err := writeSection(sectionMeta, payload.Bytes()); err != nil {
		return err
	}

	payload.Reset()
	putUvarint(&payload, uint64(len(p.Streams)))
	for i, st := range p.Streams {
		if len(st.Refs) == 0 || len(st.Refs) > maxStreamRefs {
			return fmt.Errorf("snapshot: encode: stream %d has %d refs (format bound 1..%d)", i, len(st.Refs), maxStreamRefs)
		}
		putUvarint(&payload, uint64(len(st.Refs)))
		prevPC, prevAddr := int64(0), int64(0)
		for _, r := range st.Refs {
			putVarint(&payload, int64(r.PC)-prevPC)
			putVarint(&payload, int64(r.Addr)-prevAddr)
			prevPC, prevAddr = int64(r.PC), int64(r.Addr)
		}
		putUvarint(&payload, st.Heat)
	}
	if payload.Len() > maxSectionLen {
		return fmt.Errorf("snapshot: encode: streams section %d bytes exceeds the format bound %d", payload.Len(), maxSectionLen)
	}
	if err := writeSection(sectionStreams, payload.Bytes()); err != nil {
		return err
	}

	if p.Baseline.Valid {
		payload.Reset()
		payload.WriteByte(1) // validity flag
		putUvarint(&payload, p.Baseline.Issued)
		putUvarint(&payload, p.Baseline.Hits)
		if err := writeSection(sectionBaseline, payload.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decoder carries one Read's state.
type decoder struct {
	br       *bufio.Reader
	sections int
}

// newDecoder validates the header and returns a decoder positioned at the
// first section.
func newDecoder(r io.Reader) (*decoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var head [headerLen]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrTruncated, err)
	}
	if !bytes.Equal(head[:6], magicPrefix[:]) {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, head[:6])
	}
	if head[6] != formatVersion {
		return nil, fmt.Errorf("%w: got version %d, this reader understands %d", ErrVersion, head[6], formatVersion)
	}
	if head[7] != 0 {
		// Flags are reserved; a writer that sets one needs semantics this
		// reader does not have, which is version skew, not corruption.
		return nil, fmt.Errorf("%w: unsupported flags %#02x", ErrVersion, head[7])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: section count: %v", ErrTruncated, err)
	}
	if count == 0 || count > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, count)
	}
	return &decoder{br: br, sections: int(count)}, nil
}

// nextSection reads one section's id and checksum-verified payload. The
// payload buffer grows only as actual bytes arrive, regardless of the
// declared length.
func (d *decoder) nextSection() (id uint64, payload []byte, err error) {
	id, err = binary.ReadUvarint(d.br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: section id: %v", ErrTruncated, err)
	}
	if id == 0 {
		return 0, nil, fmt.Errorf("%w: section id 0", ErrCorrupt)
	}
	length, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: section %d length: %v", ErrTruncated, id, err)
	}
	if length > maxSectionLen {
		return 0, nil, fmt.Errorf("%w: section %d claims %d bytes (bound %d)", ErrCorrupt, id, length, maxSectionLen)
	}
	// Incremental read: the initial allocation is capped; a section claiming
	// 64 MiB but delivering 12 bytes costs 12 bytes plus one chunk.
	hint := length
	if hint > allocChunkRefs {
		hint = allocChunkRefs
	}
	payload = make([]byte, 0, hint)
	var chunk [4096]byte
	for uint64(len(payload)) < length {
		want := length - uint64(len(payload))
		if want > uint64(len(chunk)) {
			want = uint64(len(chunk))
		}
		n, rerr := io.ReadFull(d.br, chunk[:want])
		payload = append(payload, chunk[:n]...)
		if rerr != nil {
			return 0, nil, fmt.Errorf("%w: section %d body at byte %d/%d: %v", ErrTruncated, id, len(payload), length, rerr)
		}
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(d.br, crcBytes[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: section %d checksum: %v", ErrTruncated, id, err)
	}
	want := binary.LittleEndian.Uint32(crcBytes[:])
	// Recompute over the canonical header encoding plus the payload; see
	// writeSection for why the header participates.
	var head [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], id)
	n += binary.PutUvarint(head[n:], length)
	got := crc32.Update(0, castagnoli, head[:n])
	got = crc32.Update(got, castagnoli, payload)
	if got != want {
		return 0, nil, fmt.Errorf("%w: section %d: got %08x, header says %08x", ErrChecksum, id, got, want)
	}
	return id, payload, nil
}

// parseMeta decodes the meta section payload.
func parseMeta(payload []byte) (gen uint64, createdAt int64, err error) {
	buf := bytes.NewReader(payload)
	gen, err = binary.ReadUvarint(buf)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: meta generation: %v", ErrCorrupt, err)
	}
	createdAt, err = binary.ReadVarint(buf)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: meta created-at: %v", ErrCorrupt, err)
	}
	if buf.Len() != 0 {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes in meta section", ErrCorrupt, buf.Len())
	}
	return gen, createdAt, nil
}

// parseStreams decodes the streams section payload.
func parseStreams(payload []byte) ([]ref.Stream, error) {
	buf := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: stream count: %v", ErrCorrupt, err)
	}
	if count > maxStreams {
		return nil, fmt.Errorf("%w: implausible stream count %d (bound %d)", ErrCorrupt, count, maxStreams)
	}
	// The payload passed its checksum, so the declared count is honest about
	// the section's own bytes — but each ref costs at least 2 bytes, so a
	// count wildly beyond the remaining payload is still rejected before any
	// allocation happens.
	if count > uint64(buf.Len()) {
		return nil, fmt.Errorf("%w: %d streams declared in %d payload bytes", ErrCorrupt, count, buf.Len())
	}
	streams := make([]ref.Stream, 0, count)
	for i := uint64(0); i < count; i++ {
		refCount, err := binary.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: stream %d ref count: %v", ErrCorrupt, i, err)
		}
		if refCount == 0 || refCount > maxStreamRefs {
			return nil, fmt.Errorf("%w: stream %d has %d refs (bound 1..%d)", ErrCorrupt, i, refCount, maxStreamRefs)
		}
		if refCount > uint64(buf.Len()) {
			return nil, fmt.Errorf("%w: stream %d declares %d refs in %d remaining bytes", ErrCorrupt, i, refCount, buf.Len())
		}
		refs := make([]ref.Ref, 0, refCount)
		prevPC, prevAddr := int64(0), int64(0)
		for j := uint64(0); j < refCount; j++ {
			dpc, err := binary.ReadVarint(buf)
			if err != nil {
				return nil, fmt.Errorf("%w: stream %d ref %d pc: %v", ErrCorrupt, i, j, err)
			}
			daddr, err := binary.ReadVarint(buf)
			if err != nil {
				return nil, fmt.Errorf("%w: stream %d ref %d addr: %v", ErrCorrupt, i, j, err)
			}
			prevPC += dpc
			prevAddr += daddr
			refs = append(refs, ref.Ref{PC: int(prevPC), Addr: uint64(prevAddr)})
		}
		heat, err := binary.ReadUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: stream %d heat: %v", ErrCorrupt, i, err)
		}
		streams = append(streams, ref.Stream{Refs: refs, Heat: heat})
	}
	if buf.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in streams section", ErrCorrupt, buf.Len())
	}
	return streams, nil
}

// parseBaseline decodes the baseline section payload.
func parseBaseline(payload []byte) (Baseline, error) {
	buf := bytes.NewReader(payload)
	flag, err := buf.ReadByte()
	if err != nil {
		return Baseline{}, fmt.Errorf("%w: baseline flag: %v", ErrCorrupt, err)
	}
	if flag != 1 {
		return Baseline{}, fmt.Errorf("%w: baseline flag %d", ErrCorrupt, flag)
	}
	issued, err := binary.ReadUvarint(buf)
	if err != nil {
		return Baseline{}, fmt.Errorf("%w: baseline issued: %v", ErrCorrupt, err)
	}
	hits, err := binary.ReadUvarint(buf)
	if err != nil {
		return Baseline{}, fmt.Errorf("%w: baseline hits: %v", ErrCorrupt, err)
	}
	if hits > issued {
		return Baseline{}, fmt.Errorf("%w: baseline hits %d exceed issued %d", ErrCorrupt, hits, issued)
	}
	if buf.Len() != 0 {
		return Baseline{}, fmt.Errorf("%w: %d trailing bytes in baseline section", ErrCorrupt, buf.Len())
	}
	return Baseline{Valid: true, Issued: issued, Hits: hits}, nil
}

// Read decodes a snapshot written by Write. Any failure wraps one of the
// typed sentinel errors (IsFormatError reports true), and decoding never
// allocates more than a bounded chunk ahead of the bytes actually read.
func Read(r io.Reader) (*Profile, error) {
	d, err := newDecoder(r)
	if err != nil {
		return nil, err
	}
	p := &Profile{}
	seen := map[uint64]bool{}
	for i := 0; i < d.sections; i++ {
		id, payload, err := d.nextSection()
		if err != nil {
			return nil, err
		}
		if id <= sectionBaseline && seen[id] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		seen[id] = true
		switch id {
		case sectionMeta:
			if p.Generation, p.CreatedAt, err = parseMeta(payload); err != nil {
				return nil, err
			}
		case sectionStreams:
			if p.Streams, err = parseStreams(payload); err != nil {
				return nil, err
			}
		case sectionBaseline:
			if p.Baseline, err = parseBaseline(payload); err != nil {
				return nil, err
			}
		default:
			// Unknown section from a future writer: checksum verified, content
			// skipped.
		}
	}
	if !seen[sectionMeta] || !seen[sectionStreams] {
		return nil, fmt.Errorf("%w: missing required section (meta %v, streams %v)", ErrCorrupt, seen[sectionMeta], seen[sectionStreams])
	}
	// The section count is the framing's end marker; bytes after the last
	// section mean the count lied.
	if _, err := d.br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after final section", ErrCorrupt)
	}
	return p, nil
}

// ReadInfo decodes only the snapshot's identity — generation and creation
// time — scanning sections until meta is found. Writers use it to compare
// the generation of an existing snapshot file against the one they are
// about to write without materializing the stream payload.
func ReadInfo(r io.Reader) (Info, error) {
	d, err := newDecoder(r)
	if err != nil {
		return Info{}, err
	}
	for i := 0; i < d.sections; i++ {
		id, payload, err := d.nextSection()
		if err != nil {
			return Info{}, err
		}
		if id != sectionMeta {
			continue
		}
		gen, createdAt, err := parseMeta(payload)
		if err != nil {
			return Info{}, err
		}
		return Info{Generation: gen, CreatedAt: createdAt}, nil
	}
	return Info{}, fmt.Errorf("%w: missing meta section", ErrCorrupt)
}

package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"

	"hotprefetch/internal/ref"
)

// sample returns a representative profile: several streams with delta-coded
// refs that exercise negative deltas, a baseline, and a non-zero generation.
func sample() *Profile {
	return &Profile{
		Generation: 7,
		CreatedAt:  1754700000000000000,
		Streams: []ref.Stream{
			{Refs: []ref.Ref{{PC: 100, Addr: 4096}, {PC: 108, Addr: 4128}, {PC: 92, Addr: 64}}, Heat: 900},
			{Refs: []ref.Ref{{PC: 1 << 30, Addr: 1 << 40}, {PC: 4, Addr: 8}}, Heat: 512},
			{Refs: []ref.Ref{{PC: 0, Addr: 0}}, Heat: 3},
		},
		Baseline: Baseline{Valid: true, Issued: 1000, Hits: 640},
	}
}

func encode(t *testing.T, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestRoundTripNoBaseline(t *testing.T) {
	want := sample()
	want.Baseline = Baseline{}
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Baseline.Valid {
		t.Fatalf("baseline materialized from nothing: %+v", got.Baseline)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestRoundTripEmptyStreams(t *testing.T) {
	want := &Profile{Generation: 1, CreatedAt: 42}
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got.Streams) != 0 || got.Generation != 1 || got.CreatedAt != 42 {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestReadInfo(t *testing.T) {
	enc := encode(t, sample())
	info, err := ReadInfo(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("ReadInfo: %v", err)
	}
	if info.Generation != 7 || info.CreatedAt != 1754700000000000000 {
		t.Fatalf("ReadInfo = %+v", info)
	}
}

func TestBadMagic(t *testing.T) {
	enc := encode(t, sample())
	enc[0] ^= 0xff
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestVersionSkew(t *testing.T) {
	enc := encode(t, sample())
	enc[6] = formatVersion + 1
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
	enc[6] = formatVersion
	enc[7] = 0x80 // reserved flag
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrVersion) {
		t.Fatalf("reserved flag: got %v, want ErrVersion", err)
	}
}

// TestTruncationEveryPrefix: every strict prefix of a valid snapshot must
// fail with a typed error — which subsumes truncation at every section
// boundary.
func TestTruncationEveryPrefix(t *testing.T) {
	enc := encode(t, sample())
	for n := 0; n < len(enc); n++ {
		_, err := Read(bytes.NewReader(enc[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(enc))
		}
		if !IsFormatError(err) {
			t.Fatalf("prefix of %d bytes: untyped error %v", n, err)
		}
	}
}

// TestEveryBitFlip: flipping any single bit of a valid snapshot must yield a
// typed error, never a silent semantic change and never a panic. The section
// checksums cover the section headers too, so even id/length flips are
// caught rather than reframing the file.
func TestEveryBitFlip(t *testing.T) {
	enc := encode(t, sample())
	for i := 0; i < len(enc); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 1 << bit
			_, err := Read(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("flip byte %d bit %d decoded successfully", i, bit)
			}
			if !IsFormatError(err) {
				t.Fatalf("flip byte %d bit %d: untyped error %v", i, bit, err)
			}
		}
	}
}

func TestTrailingGarbage(t *testing.T) {
	enc := append(encode(t, sample()), 0xAA)
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// rawSection frames a section the way Write does, checksum included.
func rawSection(id uint64, body []byte) []byte {
	var out []byte
	out = binary.AppendUvarint(out, id)
	out = binary.AppendUvarint(out, uint64(len(body)))
	head := append([]byte(nil), out...)
	out = append(out, body...)
	sum := crc32.Update(0, castagnoli, head)
	sum = crc32.Update(sum, castagnoli, body)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	return append(out, crc[:]...)
}

// craft builds a snapshot file from raw sections.
func craft(sections ...[]byte) []byte {
	out := []byte{'H', 'D', 'S', 'S', 'N', 'P', formatVersion, 0}
	out = binary.AppendUvarint(out, uint64(len(sections)))
	for _, s := range sections {
		out = append(out, s...)
	}
	return out
}

func metaSection(gen uint64, createdAt int64) []byte {
	var body []byte
	body = binary.AppendUvarint(body, gen)
	body = binary.AppendVarint(body, createdAt)
	return rawSection(sectionMeta, body)
}

func TestImplausibleCounts(t *testing.T) {
	// A streams section declaring 2^20+1 streams in a tiny payload.
	var body []byte
	body = binary.AppendUvarint(body, maxStreams+1)
	enc := craft(metaSection(1, 0), rawSection(sectionStreams, body))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized stream count: got %v, want ErrCorrupt", err)
	}

	// A stream declaring more refs than the remaining payload could hold.
	body = body[:0]
	body = binary.AppendUvarint(body, 1)
	body = binary.AppendUvarint(body, 60000)
	enc = craft(metaSection(1, 0), rawSection(sectionStreams, body))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized ref count: got %v, want ErrCorrupt", err)
	}

	// A zero-ref stream is structurally impossible.
	body = body[:0]
	body = binary.AppendUvarint(body, 1)
	body = binary.AppendUvarint(body, 0)
	body = binary.AppendUvarint(body, 5) // heat
	enc = craft(metaSection(1, 0), rawSection(sectionStreams, body))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-ref stream: got %v, want ErrCorrupt", err)
	}

	// An implausible section count.
	enc = craft()
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero sections: got %v, want ErrCorrupt", err)
	}
}

func TestDuplicateSection(t *testing.T) {
	var streams []byte
	streams = binary.AppendUvarint(streams, 0)
	enc := craft(metaSection(1, 0), metaSection(2, 0), rawSection(sectionStreams, streams))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate meta: got %v, want ErrCorrupt", err)
	}
}

func TestMissingRequiredSection(t *testing.T) {
	enc := craft(metaSection(1, 0))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing streams: got %v, want ErrCorrupt", err)
	}
}

// TestUnknownSectionSkipped: a section id from a future writer is skipped
// (checksum still verified) and the rest of the file decodes.
func TestUnknownSectionSkipped(t *testing.T) {
	var streams []byte
	streams = binary.AppendUvarint(streams, 0)
	future := rawSection(99, []byte("future payload this reader cannot interpret"))
	enc := craft(metaSection(11, 22), future, rawSection(sectionStreams, streams))
	p, err := Read(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("Read with unknown section: %v", err)
	}
	if p.Generation != 11 || p.CreatedAt != 22 {
		t.Fatalf("decoded %+v", p)
	}
	// A corrupted future section must still be caught by its checksum.
	enc[len(enc)-len(rawSection(sectionStreams, streams))-3] ^= 0x01
	if _, err := Read(bytes.NewReader(enc)); !IsFormatError(err) {
		t.Fatalf("corrupt unknown section: got %v, want typed error", err)
	}
}

func TestBaselineBounds(t *testing.T) {
	var body []byte
	body = append(body, 1)
	body = binary.AppendUvarint(body, 10)  // issued
	body = binary.AppendUvarint(body, 999) // hits > issued
	var streams []byte
	streams = binary.AppendUvarint(streams, 0)
	enc := craft(metaSection(1, 0), rawSection(sectionStreams, streams), rawSection(sectionBaseline, body))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hits > issued: got %v, want ErrCorrupt", err)
	}
}

func TestBaselineAccuracy(t *testing.T) {
	if acc := (Baseline{}).Accuracy(); acc != 0 {
		t.Fatalf("zero baseline accuracy %v", acc)
	}
	if acc := (Baseline{Valid: true, Issued: 4, Hits: 3}).Accuracy(); acc != 0.75 {
		t.Fatalf("accuracy %v, want 0.75", acc)
	}
}

func TestWriteBounds(t *testing.T) {
	p := &Profile{Streams: []ref.Stream{{Refs: nil, Heat: 1}}}
	if err := Write(io.Discard, p); err == nil || !strings.Contains(err.Error(), "refs") {
		t.Fatalf("empty-stream encode: %v", err)
	}
	p = &Profile{Streams: []ref.Stream{{Refs: make([]ref.Ref, maxStreamRefs+1), Heat: 1}}}
	if err := Write(io.Discard, p); err == nil {
		t.Fatal("oversized-stream encode succeeded")
	}
}

// TestDeclaredLengthAllocationBound: a section claiming a huge payload but
// delivering a few bytes must fail without the declared size ever being
// allocated.
func TestDeclaredLengthAllocationBound(t *testing.T) {
	var enc []byte
	enc = append(enc, 'H', 'D', 'S', 'S', 'N', 'P', formatVersion, 0)
	enc = binary.AppendUvarint(enc, 1)
	enc = binary.AppendUvarint(enc, sectionMeta)
	enc = binary.AppendUvarint(enc, maxSectionLen) // claims 64 MiB
	enc = append(enc, []byte("only a few bytes")...)
	allocated := testing.AllocsPerRun(5, func() {
		if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	// The exact count doesn't matter; what matters is that it's a handful of
	// small buffers, not one 64 MiB slab (which would show up as a huge
	// bytes-per-op, caught here as allocation count explosion via chunking).
	if allocated > 40 {
		t.Fatalf("truncated huge-claim decode allocated %.0f objects", allocated)
	}
	if _, err := Read(bytes.NewReader(enc)); !IsFormatError(err) {
		t.Fatal("expected typed error")
	}
	// And a section length beyond the format bound is corrupt immediately.
	enc = enc[:0]
	enc = append(enc, 'H', 'D', 'S', 'S', 'N', 'P', formatVersion, 0)
	enc = binary.AppendUvarint(enc, 1)
	enc = binary.AppendUvarint(enc, sectionMeta)
	enc = binary.AppendUvarint(enc, maxSectionLen+1)
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-bound section length: got %v, want ErrCorrupt", err)
	}
}

func TestIsFormatError(t *testing.T) {
	for _, err := range []error{ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrCorrupt} {
		if !IsFormatError(err) {
			t.Fatalf("%v not classified as format error", err)
		}
	}
	if IsFormatError(io.EOF) || IsFormatError(nil) {
		t.Fatal("misclassified non-format error")
	}
}

// limitWriter fails after n bytes, driving Write's io error paths.
type limitWriter struct{ n int }

func (w *limitWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrShortWrite
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, io.ErrShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteIOFailure(t *testing.T) {
	enc := encode(t, sample())
	// Failing at every byte offset must surface the writer's error, never
	// panic. bufio batches small writes, so only some offsets trip mid-call;
	// the flush catches the rest.
	for n := 0; n < len(enc); n += 7 {
		if err := Write(&limitWriter{n: n}, sample()); err == nil {
			t.Fatalf("Write with %d-byte budget succeeded", n)
		}
	}
}

func TestSectionPayloadCorruption(t *testing.T) {
	// Corrupt payloads whose checksums are recomputed to match, so parsing —
	// not the CRC — must reject them: trailing bytes inside each section.
	var streams []byte
	streams = binary.AppendUvarint(streams, 0)
	okStreams := rawSection(sectionStreams, streams)

	meta := metaSection(1, 2)
	var metaBody []byte
	metaBody = binary.AppendUvarint(metaBody, 1)
	metaBody = binary.AppendVarint(metaBody, 2)
	metaBody = append(metaBody, 0xFF) // trailing byte
	enc := craft(rawSection(sectionMeta, metaBody), okStreams)
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("meta trailing byte: got %v, want ErrCorrupt", err)
	}

	sBody := append(append([]byte(nil), streams...), 0xFF)
	enc = craft(meta, rawSection(sectionStreams, sBody))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("streams trailing byte: got %v, want ErrCorrupt", err)
	}

	bBody := []byte{1}
	bBody = binary.AppendUvarint(bBody, 10)
	bBody = binary.AppendUvarint(bBody, 5)
	bBody = append(bBody, 0xFF)
	enc = craft(meta, okStreams, rawSection(sectionBaseline, bBody))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("baseline trailing byte: got %v, want ErrCorrupt", err)
	}

	// Truncated-inside-payload variants: valid checksum, short varints.
	enc = craft(meta, okStreams, rawSection(sectionBaseline, []byte{1}))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("baseline short payload: got %v, want ErrCorrupt", err)
	}
	enc = craft(meta, okStreams, rawSection(sectionBaseline, []byte{9}))
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("baseline bad flag: got %v, want ErrCorrupt", err)
	}
	enc = craft(rawSection(sectionMeta, nil), okStreams)
	if _, err := Read(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty meta: got %v, want ErrCorrupt", err)
	}
}

func TestReadInfoErrors(t *testing.T) {
	if _, err := ReadInfo(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty: got %v, want ErrTruncated", err)
	}
	enc := encode(t, sample())
	enc[6] = formatVersion + 1
	if _, err := ReadInfo(bytes.NewReader(enc)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: got %v, want ErrVersion", err)
	}
	// A file whose sections never include meta.
	var streams []byte
	streams = binary.AppendUvarint(streams, 0)
	noMeta := craft(rawSection(sectionStreams, streams))
	if _, err := ReadInfo(bytes.NewReader(noMeta)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing meta: got %v, want ErrCorrupt", err)
	}
	// Corruption ahead of the meta section surfaces as its typed error.
	bad := encode(t, sample())
	bad[len(bad)-1] ^= 0xFF
	if _, err := ReadInfo(bytes.NewReader(bad[:headerLen+1])); !IsFormatError(err) {
		t.Fatalf("truncated: got %v", err)
	}
	// And the happy path tolerates meta not being first.
	reordered := craft(rawSection(sectionStreams, streams), metaSection(9, 8))
	info, err := ReadInfo(bytes.NewReader(reordered))
	if err != nil || info.Generation != 9 {
		t.Fatalf("reordered meta: %+v, %v", info, err)
	}
}

package tracefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"hotprefetch/internal/ref"
)

// refWrite and refDecoder are the codec as it was before Append and the
// windowed Decoder: one buffered Write per varint on encode, and
// binary.ReadVarint byte by byte through a bufio.Reader on decode. They are
// kept only as the reference the fast paths are checked against.
func refWrite(w io.Writer, refs []ref.Ref) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(int64(len(refs))); err != nil {
		return err
	}
	prevPC := int64(0)
	prevAddr := int64(0)
	for _, r := range refs {
		if err := put(int64(r.PC) - prevPC); err != nil {
			return err
		}
		if err := put(int64(r.Addr) - prevAddr); err != nil {
			return err
		}
		prevPC = int64(r.PC)
		prevAddr = int64(r.Addr)
	}
	return bw.Flush()
}

type refDecoder struct {
	br               *bufio.Reader
	count            int64
	decoded          int64
	prevPC, prevAddr int64
}

func newRefDecoder(r io.Reader) (*refDecoder, error) {
	br := bufio.NewReader(r)
	var head [8]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("tracefile: short header: %w", err)
	}
	if head != magic {
		return nil, fmt.Errorf("tracefile: bad magic %q", head[:6])
	}
	count, err := binary.ReadVarint(br)
	if err != nil {
		return nil, fmt.Errorf("tracefile: count: %w", err)
	}
	if count < 0 || count > 1<<32 {
		return nil, fmt.Errorf("tracefile: implausible count %d", count)
	}
	return &refDecoder{br: br, count: count}, nil
}

func (d *refDecoder) Next(buf []ref.Ref) (int, error) {
	if d.decoded >= d.count {
		return 0, io.EOF
	}
	n := 0
	for n < len(buf) && d.decoded < d.count {
		dpc, err := binary.ReadVarint(d.br)
		if err != nil {
			return n, fmt.Errorf("tracefile: ref %d pc: %w", d.decoded, err)
		}
		daddr, err := binary.ReadVarint(d.br)
		if err != nil {
			return n, fmt.Errorf("tracefile: ref %d addr: %w", d.decoded, err)
		}
		d.prevPC += dpc
		d.prevAddr += daddr
		buf[n] = ref.Ref{PC: int(d.prevPC), Addr: uint64(d.prevAddr)}
		n++
		d.decoded++
	}
	return n, nil
}

// errSource is the error errAfter's reader fails with.
var errSource = errors.New("source failed")

// errAfter returns a reader over data that fails with errSource once it has
// delivered k bytes, instead of ending cleanly.
func errAfter(data []byte, k int) io.Reader {
	if k > len(data) {
		k = len(data)
	}
	return io.MultiReader(bytes.NewReader(data[:k]), iotest.ErrReader(errSource))
}

// sources are the reader shapes the differential test decodes through:
// whole reads, one byte per Read, half of each request, the last bytes
// delivered together with io.EOF, and a source that fails with its own
// error part way.
var sources = []struct {
	name string
	new  func(data []byte, k int) io.Reader
}{
	{"plain", func(d []byte, _ int) io.Reader { return bytes.NewReader(d) }},
	{"one-byte", func(d []byte, _ int) io.Reader { return iotest.OneByteReader(bytes.NewReader(d)) }},
	{"half", func(d []byte, _ int) io.Reader { return iotest.HalfReader(bytes.NewReader(d)) }},
	{"data-err", func(d []byte, _ int) io.Reader { return iotest.DataErrReader(bytes.NewReader(d)) }},
	{"err-after-k", errAfter},
}

// errClass names what a caller can tell about a decode error with ==,
// errors.Is and errors.As.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case err == io.EOF:
		return "EOF"
	case errors.Is(err, errSource):
		return "source"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	case errors.Is(err, io.EOF):
		return "wrapped EOF"
	case errors.Is(err, io.ErrNoProgress):
		return "no progress"
	case strings.Contains(err.Error(), "overflows a 64-bit integer"):
		return "overflow"
	default:
		return "format"
	}
}

// decodeAll drains a decoder (Next over chunk-sized buffers) until its
// first error, returning the references and that error.
func decodeAll(next func([]ref.Ref) (int, error), chunk int) ([]ref.Ref, error) {
	var got []ref.Ref
	buf := make([]ref.Ref, chunk)
	for {
		n, err := next(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return got, err
		}
	}
}

// checkAgainstReference decodes data through the Decoder and refDecoder,
// each over its own copy of the same source, and fails unless both yield
// the same references, stop at the same count and fail in the same way.
// Error text must match too, up to the package prefix of the overflow
// error.
func checkAgainstReference(t *testing.T, data []byte, k, chunk int) {
	t.Helper()
	for _, src := range sources {
		want, wantErr := func() ([]ref.Ref, error) {
			d, err := newRefDecoder(src.new(data, k))
			if err != nil {
				return nil, err
			}
			return decodeAll(d.Next, chunk)
		}()
		got, gotErr := func() ([]ref.Ref, error) {
			d, err := NewDecoder(src.new(data, k))
			if err != nil {
				return nil, err
			}
			return decodeAll(d.Next, chunk)
		}()
		if gc, wc := errClass(gotErr), errClass(wantErr); gc != wc {
			t.Fatalf("%s source, k=%d chunk=%d: error %q (%s), reference %q (%s)",
				src.name, k, chunk, gotErr, gc, wantErr, wc)
		}
		if g, w := gotErr.Error(), strings.Replace(wantErr.Error(), "binary: varint", "varint", 1); g != w {
			t.Fatalf("%s source, k=%d chunk=%d: error %q, reference %q", src.name, k, chunk, g, w)
		}
		if len(got) != len(want) {
			t.Fatalf("%s source, k=%d chunk=%d: %d refs before %q, reference %d",
				src.name, k, chunk, len(got), gotErr, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s source, k=%d chunk=%d: ref %d = %+v, reference %+v",
					src.name, k, chunk, i, got[i], want[i])
			}
		}
	}
}

// FuzzDecoderDifferential decodes arbitrary bytes through the windowed
// Decoder and the byte-at-a-time reference under every source shape in
// sources: the references, the count before the first error and the error
// itself must agree. k is where the failing source fails; chunk is the
// caller's Next buffer size.
func FuzzDecoderDifferential(f *testing.F) {
	walk := make([]ref.Ref, 700)
	for i := range walk {
		walk[i] = ref.Ref{PC: i % 13, Addr: uint64(i%97) * 4096}
	}
	valid := encode(f, walk)
	f.Add([]byte{}, uint16(0), uint8(1))
	f.Add(encode(f, nil), uint16(3), uint8(1))
	f.Add(valid, uint16(len(valid)), uint8(255))
	f.Add(valid, uint16(len(valid)/2), uint8(7))
	f.Add(valid[:len(valid)-1], uint16(len(valid)), uint8(64))
	f.Add(encode(f, []ref.Ref{{PC: -1 << 62, Addr: 1 << 63}, {PC: 1 << 62, Addr: 0}}), uint16(20), uint8(2))
	overflow := append(encode(f, nil)[:8], 0x02)
	overflow = append(overflow, bytes.Repeat([]byte{0xff}, 12)...)
	f.Add(overflow, uint16(100), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, k uint16, chunk uint8) {
		checkAgainstReference(t, data, int(k), int(chunk)%64+1)
	})
}

// TestDecoderMatchesReference runs the differential check over traces whose
// deltas span every varint length, cut and corrupted at every window
// boundary the decoder's refill logic has.
func TestDecoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	refs := make([]ref.Ref, 3000)
	for i := range refs {
		refs[i] = ref.Ref{PC: int(rng.Int63() >> rng.Intn(63)), Addr: rng.Uint64() >> rng.Intn(64)}
	}
	data := encode(t, refs)
	for _, cut := range []int{0, 5, 8, 9, 100, window - 1, window, window + 1, 2*window + 7, len(data) - 1, len(data)} {
		for _, k := range []int{0, 9, window - 3, window + 11, len(data)} {
			checkAgainstReference(t, data[:cut], k, 2048)
		}
	}
	flipped := append([]byte(nil), data...)
	for i := 9; i < len(flipped); i += 613 {
		flipped[i] = 0xff
	}
	checkAgainstReference(t, flipped, len(flipped), 100)
}

// TestAppendMatchesReferenceWrite pins the wire format: Append, and Write
// through either of its paths, produce exactly the reference encoder's
// bytes.
func TestAppendMatchesReferenceWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, chunkRefs - 1, chunkRefs, chunkRefs + 1, 3*chunkRefs + 5} {
		refs := make([]ref.Ref, n)
		for i := range refs {
			refs[i] = ref.Ref{PC: int(rng.Int63()>>rng.Intn(63)) - 1<<20, Addr: rng.Uint64() >> rng.Intn(64)}
		}
		var want bytes.Buffer
		if err := refWrite(&want, refs); err != nil {
			t.Fatal(err)
		}
		if got := Append(nil, refs); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d refs: Append differs from the reference encoding", n)
		}
		prefix := []byte("kept")
		if got := Append(prefix, refs); !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], want.Bytes()) {
			t.Fatalf("%d refs: Append onto a prefix changed the prefix or the encoding", n)
		}
		var buffered bytes.Buffer
		if err := Write(&buffered, refs); err != nil {
			t.Fatal(err)
		}
		var plain plainWriter
		if err := Write(&plain, refs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buffered.Bytes(), want.Bytes()) || !bytes.Equal(plain.buf, want.Bytes()) {
			t.Fatalf("%d refs: Write differs from the reference encoding", n)
		}
	}
}

// plainWriter is an io.Writer with no AvailableBuffer that keeps what it is
// given and the largest single Write.
type plainWriter struct {
	buf      []byte
	calls    int
	maxWrite int
}

func (w *plainWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	w.calls++
	w.maxWrite = max(w.maxWrite, len(p))
	return len(p), nil
}

// TestWriteChunkBound: a writer without AvailableBuffer (a file) is handed
// the encoding in Write calls of at most writeChunk bytes, even when every
// reference takes its worst-case 20 bytes.
func TestWriteChunkBound(t *testing.T) {
	refs := make([]ref.Ref, 10*chunkRefs+3)
	for i := range refs {
		if i%2 == 0 {
			refs[i] = ref.Ref{PC: -1 << 62, Addr: 1 << 63}
		} else {
			refs[i] = ref.Ref{PC: 1 << 62, Addr: 1}
		}
	}
	var w plainWriter
	if err := Write(&w, refs); err != nil {
		t.Fatal(err)
	}
	if w.maxWrite > writeChunk {
		t.Errorf("largest Write call was %d bytes, want <= %d", w.maxWrite, writeChunk)
	}
	if w.calls < len(w.buf)/writeChunk {
		t.Errorf("%d Write calls for %d bytes: chunks are not bounded", w.calls, len(w.buf))
	}
	if !bytes.Equal(w.buf, Append(nil, refs)) {
		t.Error("chunked Write differs from Append")
	}
	errW := errWriter{failAt: 3}
	if err := Write(&errW, refs); !errors.Is(err, errSource) {
		t.Errorf("Write through a failing writer = %v, want its error", err)
	}
}

// errWriter fails with errSource on its failAt'th Write call.
type errWriter struct{ calls, failAt int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.calls++; w.calls == w.failAt {
		return 0, errSource
	}
	return len(p), nil
}

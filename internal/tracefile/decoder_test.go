package tracefile

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"hotprefetch/internal/ref"
)

// TestDecoderChunks decodes a trace through every chunk size that stresses
// the boundary arithmetic and checks the result matches Read.
func TestDecoderChunks(t *testing.T) {
	refs := make([]ref.Ref, 1000)
	for i := range refs {
		refs[i] = ref.Ref{PC: i % 97, Addr: uint64(i) * 64}
	}
	var buf bytes.Buffer
	if err := Write(&buf, refs); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 64, 999, 1000, 4096} {
		d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if d.Count() != int64(len(refs)) {
			t.Fatalf("chunk %d: Count = %d, want %d", chunk, d.Count(), len(refs))
		}
		var got []ref.Ref
		b := make([]ref.Ref, chunk)
		for {
			n, err := d.Next(b)
			got = append(got, b[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
		}
		if len(got) != len(refs) {
			t.Fatalf("chunk %d: decoded %d refs, want %d", chunk, len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("chunk %d: ref %d = %v, want %v", chunk, i, got[i], refs[i])
			}
		}
		if d.Remaining() != 0 {
			t.Errorf("chunk %d: Remaining = %d after EOF", chunk, d.Remaining())
		}
	}
}

func TestDecoderTruncated(t *testing.T) {
	refs := make([]ref.Ref, 100)
	for i := range refs {
		refs[i] = ref.Ref{PC: i, Addr: uint64(i) * 8}
	}
	var buf bytes.Buffer
	if err := Write(&buf, refs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	d, err := NewDecoder(bytes.NewReader(full[:len(full)/2]))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]ref.Ref, 4096)
	_, err = d.Next(b)
	if err == nil || err == io.EOF {
		t.Fatalf("truncated body: err = %v, want decode error", err)
	}
}

// hugeClaimTrace returns a tiny trace whose header claims `claim` references
// but whose body carries only `actual` of them.
func hugeClaimTrace(t testing.TB, claim int64, actual int) []byte {
	t.Helper()
	var body bytes.Buffer
	refs := make([]ref.Ref, actual)
	for i := range refs {
		refs[i] = ref.Ref{PC: i, Addr: uint64(i)}
	}
	if err := Write(&body, refs); err != nil {
		t.Fatal(err)
	}
	// Rewrite the count varint in place: header(8) + count + deltas.
	out := append([]byte(nil), magic[:]...)
	var v [binary.MaxVarintLen64]byte
	n := binary.PutVarint(v[:], claim)
	out = append(out, v[:n]...)
	full := body.Bytes()
	skip := 8
	_, m := binary.Varint(full[skip:])
	return append(out, full[skip+m:]...)
}

// TestDecoderByteBudget is the OOM regression test for the ingest path: a
// body claiming 2^32 references must cost the server no more than the chunk
// buffer while being streamed, however large the claim. The pre-PR-7 Read
// path materialized the whole stream, so even with its pre-allocation cap a
// long genuine body would grow the heap without bound; the Decoder holds
// decoding to the caller's buffer.
func TestDecoderByteBudget(t *testing.T) {
	data := hugeClaimTrace(t, 1<<32, 100_000)
	rd := bytes.NewReader(data)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	d, err := NewDecoder(rd)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]ref.Ref, 4096)
	var total int64
	for {
		n, err := d.Next(buf)
		total += int64(n)
		if err != nil {
			// Truncation is expected: the body carries fewer refs than the
			// header claims. What matters is that nothing was pre-allocated
			// for the claimed 2^32.
			break
		}
	}
	runtime.ReadMemStats(&after)
	if total != 100_000 {
		t.Fatalf("decoded %d refs, want 100000", total)
	}
	// 2^32 refs at 16 bytes each would be 64 GiB; the streaming path must
	// stay within a modest fixed budget (chunk buffer + window + noise).
	const budget = 1 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
		t.Errorf("decoding allocated %d bytes, want <= %d", grew, budget)
	}
}

// TestDecoderNextZeroAlloc pins the steady-state contract: Next allocates
// nothing, whatever the trace contents.
func TestDecoderNextZeroAlloc(t *testing.T) {
	refs := make([]ref.Ref, 50_000)
	for i := range refs {
		refs[i] = ref.Ref{PC: i % 113, Addr: uint64(i%127) * 64}
	}
	var buf bytes.Buffer
	if err := Write(&buf, refs); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]ref.Ref, 1024)
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := d.Next(b); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Next allocates %v per call, want 0", allocs)
	}
}

// TestDecoderResetZeroAlloc: a decoder reused through Reset — the service's
// pooled ingest decoder — decodes trace after trace without allocating,
// header included.
func TestDecoderResetZeroAlloc(t *testing.T) {
	refs := make([]ref.Ref, 5000)
	for i := range refs {
		refs[i] = ref.Ref{PC: i % 113, Addr: uint64(i%127) * 4096}
	}
	data := encode(t, refs)
	rd := bytes.NewReader(data)
	var d Decoder
	b := make([]ref.Ref, 2048)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(data)
		if err := d.Reset(rd); err != nil {
			t.Fatal(err)
		}
		total := 0
		for {
			n, err := d.Next(b)
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if total != len(refs) {
			t.Fatalf("decoded %d refs, want %d", total, len(refs))
		}
	})
	if allocs != 0 {
		t.Errorf("Reset and drain allocate %v per trace, want 0", allocs)
	}
	if err := d.Reset(nil); err != nil || d.r != nil || d.Remaining() != 0 {
		t.Errorf("Reset(nil) = %v with source %v and %d refs remaining; want the source dropped and an empty trace",
			err, d.r, d.Remaining())
	}
	if n, err := d.Next(b); n != 0 || err != io.EOF {
		t.Errorf("Next after Reset(nil) = %d, %v; want 0, io.EOF", n, err)
	}
}

// BenchmarkDecoderDrain measures streaming decode throughput: one iteration
// opens a decoder over a 1<<14-reference frame and drains it in 2048-ref
// chunks — the ingest endpoint's exact access pattern. The one allocation
// per drain is NewDecoder's Decoder with its window, which the service
// pools instead (see TestDecoderResetZeroAlloc); Next itself allocates
// nothing (see TestDecoderNextZeroAlloc).
func BenchmarkDecoderDrain(b *testing.B) {
	const n = 1 << 14
	refs := make([]ref.Ref, n)
	for i := range refs {
		refs[i] = ref.Ref{PC: i % 97, Addr: uint64(i) * 64}
	}
	var buf bytes.Buffer
	if err := Write(&buf, refs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	chunk := make([]ref.Ref, 2048)
	rd := bytes.NewReader(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		d, err := NewDecoder(rd)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for {
			got, err := d.Next(chunk)
			total += got
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if total != n {
			b.Fatalf("decoded %d refs, want %d", total, n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "refs-ns/op")
}

package hotprefetch

import (
	"bytes"
	"io"
	"testing"

	"hotprefetch/internal/ref"
	"hotprefetch/internal/snapshot"
)

// benchSnapshotBytes encodes a synthetic banked-stream set of realistic
// checkpoint size: `streams` hot streams of `refsPer` references each.
func benchSnapshotBytes(b *testing.B, streams, refsPer int) []byte {
	b.Helper()
	p := &snapshot.Profile{Generation: 1, CreatedAt: 1}
	for s := 0; s < streams; s++ {
		refs := make([]ref.Ref, refsPer)
		for i := range refs {
			refs[i] = ref.Ref{PC: 1000*s + i, Addr: uint64(0x10000*s + 8*i)}
		}
		p.Streams = append(p.Streams, ref.Stream{Refs: refs, Heat: uint64(1000 - s)})
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, p); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchRestoredProfile returns a profile whose banked set is the synthetic
// snapshot — the state a checkpointing tenant encodes every interval.
func benchRestoredProfile(b *testing.B, streams, refsPer int) *ShardedProfile {
	b.Helper()
	sp := NewShardedProfile(1)
	b.Cleanup(sp.Close)
	if _, err := sp.RestoreSnapshot(bytes.NewReader(benchSnapshotBytes(b, streams, refsPer))); err != nil {
		b.Fatal(err)
	}
	return sp
}

// BenchmarkSnapshotEncode measures one checkpoint pass over a profile with
// 256 banked streams of 16 refs: the cost the periodic checkpoint loop adds
// per tenant per interval, which must never stall ingest.
func BenchmarkSnapshotEncode(b *testing.B) {
	sp := benchRestoredProfile(b, 256, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sp.WriteSnapshot(io.Discard, uint64(i)+2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures a warm start: decode, validate, and
// install 256 banked streams into a cold profile.
func BenchmarkSnapshotRestore(b *testing.B) {
	enc := benchSnapshotBytes(b, 256, 16)
	sp := NewShardedProfile(1)
	defer sp.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.RestoreSnapshot(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}

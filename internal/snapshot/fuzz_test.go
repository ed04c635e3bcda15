package snapshot

import (
	"bytes"
	"reflect"
	"testing"

	"hotprefetch/internal/ref"
)

// FuzzSnapshotRestore is the snapshot loader's differential fuzzer: for
// arbitrary bytes, Read must either fail with a typed format error or
// produce a profile that (a) satisfies every format bound — so Write
// accepts it — and (b) survives a re-encode/re-decode round trip
// bit-identically. Seeded with valid snapshots, truncations, bit flips, and
// hand-framed corruption so the engine starts at the format's edges; the
// checked-in corpus under testdata/fuzz extends these.
func FuzzSnapshotRestore(f *testing.F) {
	valid := func(p *Profile) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	full := valid(&Profile{
		Generation: 3,
		CreatedAt:  1754700000000000000,
		Streams: []ref.Stream{
			{Refs: []ref.Ref{{PC: 10, Addr: 4096}, {PC: 18, Addr: 4128}}, Heat: 64},
			{Refs: []ref.Ref{{PC: 7, Addr: 1 << 33}}, Heat: 2},
		},
		Baseline: Baseline{Valid: true, Issued: 100, Hits: 25},
	})
	f.Add(full)
	f.Add(valid(&Profile{Generation: 1}))
	f.Add(full[:len(full)/2])           // truncated mid-section
	f.Add(full[:headerLen])             // header only
	f.Add([]byte("HDSSNP"))             // short header
	f.Add([]byte("HDSTRC\x01\x00\x02")) // tracefile magic, wrong format
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	skewed := append([]byte(nil), full...)
	skewed[6] = formatVersion + 1
	f.Add(skewed)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data))
		if err != nil {
			if !IsFormatError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted input: the decoded profile must be inside the format's
		// bounds, so re-encoding cannot fail...
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatalf("accepted profile failed to re-encode: %v\nprofile: %+v", err, p)
		}
		// ...and the round trip must be exact: any divergence means the two
		// directions disagree about the format.
		p2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded profile failed to decode: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip diverged:\n first %+v\nsecond %+v", p, p2)
		}
	})
}

// Package tracefile reads and writes data reference traces in a compact
// binary format, so profiles can be captured once and analyzed offline —
// the workflow of the paper's earlier, trace-driven work ([8], [21]) that
// the online system replaces, and still the right tool for debugging and
// for feeding external traces into the analysis. The same format frames
// the capture client's publishes to the profiling service.
//
// Format: an 8-byte header ("HDSTRC" + version + flags), a varint reference
// count, then per reference a varint pc delta (zigzag) and a varint address
// delta (zigzag) from the previous reference. Delta coding keeps repetitive
// traces small.
//
// Encoding appends to a byte slice (Append), so a caller that owns its
// buffer frames a trace with no writer in between. Decoding (Decoder) parses
// from a fixed window of at most window bytes that it refills from its
// reader: both varints of a reference come out of the window slice at once,
// and only the body's last few bytes take the byte-careful path.
package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hotprefetch/internal/ref"
)

var magic = [8]byte{'H', 'D', 'S', 'T', 'R', 'C', 1, 0}

const (
	// maxRefLen is the longest encoding of one reference: two varints.
	maxRefLen = 2 * binary.MaxVarintLen64

	// writeChunk bounds the bytes one Write call hands a writer that has
	// no AvailableBuffer, and chunkRefs is how many references always fit
	// in it after the header.
	writeChunk = 16 << 10
	chunkRefs  = (writeChunk - len(magic) - binary.MaxVarintLen64) / maxRefLen

	// window is the Decoder's read-ahead, the bytes it holds between
	// reads of its source.
	window = 4 << 10

	// maxEmptyReads is how many consecutive (0, nil) reads the Decoder
	// tolerates before failing with io.ErrNoProgress, as bufio does.
	maxEmptyReads = 100
)

// errOverflow reports a varint longer than a 64-bit value allows.
var errOverflow = errors.New("varint overflows a 64-bit integer")

// Append appends the encoding of refs to dst and returns the extended
// slice. With enough capacity in dst it allocates nothing.
func Append(dst []byte, refs []ref.Ref) []byte {
	return appendRefs(appendHeader(dst, len(refs)), refs, ref.Ref{})
}

// appendHeader appends the magic and the reference count.
func appendHeader(dst []byte, count int) []byte {
	return binary.AppendVarint(append(dst, magic[:]...), int64(count))
}

// appendRefs appends the delta encoding of refs, the first one taken
// relative to prev.
func appendRefs(dst []byte, refs []ref.Ref, prev ref.Ref) []byte {
	prevPC, prevAddr := int64(prev.PC), int64(prev.Addr)
	for _, r := range refs {
		pc, addr := int64(r.PC), int64(r.Addr)
		dst = binary.AppendVarint(dst, pc-prevPC)
		dst = binary.AppendVarint(dst, addr-prevAddr)
		prevPC, prevAddr = pc, addr
	}
	return dst
}

// Write encodes refs to w. A writer with AvailableBuffer (bytes.Buffer,
// bufio.Writer) gets the encoding appended to its free space and handed
// back in one Write, in place when it has the room. Any other writer gets
// it in Write calls of at most writeChunk bytes, so encoding a long trace
// to a file never holds a second copy of it. Write does not flush a
// buffered writer.
func Write(w io.Writer, refs []ref.Ref) error {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		_, err := w.Write(Append(ab.AvailableBuffer(), refs))
		return err
	}
	buf := appendHeader(make([]byte, 0, writeChunk), len(refs))
	prev := ref.Ref{}
	for {
		n := min(len(refs), chunkRefs)
		buf = appendRefs(buf, refs[:n], prev)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if n == len(refs) {
			return nil
		}
		prev, refs, buf = refs[n-1], refs[n:], buf[:0]
	}
}

// Decoder decodes a trace incrementally, a caller-sized chunk of references
// at a time, so a consumer never has to materialize the whole stream: the
// resident cost of decoding is the decoder's fixed window plus the chunk
// buffer, regardless of how many references the header claims or the body
// carries. This is what a network ingest path must use — Read's all-at-once
// slice lets a large (or maliciously long) upload grow the server's heap by
// the full trace size.
//
// A Decoder reads its source through its own window of window bytes. While
// the window holds at least maxRefLen unread bytes, Next parses whole
// references straight from it; nearer the end of the body it decodes one
// varint at a time from what the source could still supply. Reset rebinds a
// decoder to a new source, so a pooled decoder decodes request after
// request without allocating.
type Decoder struct {
	r      io.Reader
	err    error // the source's first error, reported once the window runs dry
	lo, hi int   // buf[lo:hi] is read but not yet decoded
	buf    [window]byte

	count            int64 // references the header declares
	decoded          int64 // references decoded so far
	prevPC, prevAddr int64
}

// NewDecoder reads and validates the trace header from r and returns a
// decoder positioned at the first reference. The declared count is bounded
// the same way Read bounds it; nothing is pre-allocated from it.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := new(Decoder)
	if err := d.Reset(r); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset discards the decoder's state and reads a new trace's header from r,
// with NewDecoder's checks and errors, reusing the decoder's window. A nil r
// only drops the previous source, leaving an empty trace: a decoder going
// back to a pool should not keep its last request's body reachable.
func (d *Decoder) Reset(r io.Reader) error {
	d.r, d.err, d.lo, d.hi = r, nil, 0, 0
	d.count, d.decoded, d.prevPC, d.prevAddr = 0, 0, 0, 0
	if r == nil {
		return nil
	}
	if d.fill(len(magic)); d.hi < len(magic) {
		err := d.err
		if d.hi > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("tracefile: short header: %w", err)
	}
	if [8]byte(d.buf[:8]) != magic {
		return fmt.Errorf("tracefile: bad magic %q", d.buf[:6])
	}
	d.lo = len(magic)
	count, err := d.varint()
	if err != nil {
		return fmt.Errorf("tracefile: count: %w", err)
	}
	if count < 0 || count > 1<<32 {
		return fmt.Errorf("tracefile: implausible count %d", count)
	}
	d.count = count
	return nil
}

// fill reads from the source until at least need bytes are unread or the
// source fails; the failure is kept in d.err, and bytes already read stay
// decodable ahead of it. need must not exceed window.
func (d *Decoder) fill(need int) {
	if d.lo > 0 {
		d.hi = copy(d.buf[:], d.buf[d.lo:d.hi])
		d.lo = 0
	}
	for empty := 0; d.hi < need && d.err == nil; {
		n, err := d.r.Read(d.buf[d.hi:])
		d.hi += n
		d.err = err
		if n > 0 {
			empty = 0
		} else if empty++; empty == maxEmptyReads && err == nil {
			d.err = io.ErrNoProgress
		}
	}
}

// varint decodes one zigzag varint the careful way, refilling first. Like
// binary.ReadVarint, a source that ends before the varint begins returns
// io.EOF, one that ends inside it io.ErrUnexpectedEOF, and any other source
// error comes back as is.
func (d *Decoder) varint() (int64, error) {
	if d.hi-d.lo < binary.MaxVarintLen64 {
		d.fill(binary.MaxVarintLen64)
	}
	v, n := binary.Varint(d.buf[d.lo:d.hi])
	switch {
	case n > 0:
		d.lo += n
		return v, nil
	case n < 0 || d.hi-d.lo >= binary.MaxVarintLen64:
		// binary.Varint asks for an 11th byte after ten continuation
		// bytes; ReadVarint stops there with an overflow.
		return 0, errOverflow
	case d.lo == d.hi || d.err != io.EOF:
		return 0, d.err
	default:
		return 0, io.ErrUnexpectedEOF
	}
}

// Count returns the number of references the header declares. The body may
// still turn out to be truncated; Next reports that as an error.
func (d *Decoder) Count() int64 { return d.count }

// Remaining returns how many declared references have not been decoded yet.
func (d *Decoder) Remaining() int64 { return d.count - d.decoded }

// Next decodes up to len(buf) references into buf and returns how many it
// decoded. At end of trace it returns (0, io.EOF); a truncated or corrupt
// body returns the decode error, wrapping the source's own error when the
// source failed. Next never allocates on success: the only buffers involved
// are the decoder's window and the caller's.
func (d *Decoder) Next(buf []ref.Ref) (int, error) {
	if d.decoded >= d.count {
		return 0, io.EOF
	}
	if rem := d.count - d.decoded; int64(len(buf)) > rem {
		buf = buf[:rem]
	}
	n := 0
	for n < len(buf) {
		if d.hi-d.lo < maxRefLen {
			if d.fill(maxRefLen); d.hi-d.lo < maxRefLen {
				// The body's last bytes: the source has ended or failed.
				if err := d.tailRef(&buf[n]); err != nil {
					return n, err
				}
				n++
				continue
			}
		}
		m, err := d.windowRefs(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// windowRefs decodes references into buf while the window holds a whole
// worst-case reference, and returns how many it decoded.
func (d *Decoder) windowRefs(buf []ref.Ref) (int, error) {
	lo, hi, pc, addr := d.lo, d.hi, d.prevPC, d.prevAddr
	n := 0
	for ; n < len(buf) && hi-lo >= maxRefLen; n++ {
		w := (*[maxRefLen]byte)(d.buf[lo : lo+maxRefLen])
		upc, k := uint64(w[0]), 1
		if upc >= 0x80 {
			if upc, k = uvarint((*[binary.MaxVarintLen64]byte)(w[:])); k == 0 {
				return d.windowStop(n, lo, pc, addr, "pc")
			}
		}
		uaddr := uint64(w[k])
		if uaddr < 0x80 {
			k++
		} else {
			m := 0
			if uaddr, m = uvarint((*[binary.MaxVarintLen64]byte)(w[k:])); m == 0 {
				return d.windowStop(n, lo, pc, addr, "addr")
			}
			k += m
		}
		lo += k
		pc += unzigzag(upc)
		addr += unzigzag(uaddr)
		buf[n] = ref.Ref{PC: int(pc), Addr: uint64(addr)}
	}
	d.lo, d.prevPC, d.prevAddr = lo, pc, addr
	d.decoded += int64(n)
	return n, nil
}

// windowStop saves windowRefs' progress at an overflowing varint in the
// named field of the next reference and returns the overflow error.
func (d *Decoder) windowStop(n, lo int, pc, addr int64, field string) (int, error) {
	d.lo, d.prevPC, d.prevAddr = lo, pc, addr
	d.decoded += int64(n)
	return n, fmt.Errorf("tracefile: ref %d %s: %w", d.decoded, field, errOverflow)
}

// uvarint decodes the varint at the front of w, which is long enough to
// hold any varint, and returns its value and length; length 0 means the
// varint overflows 64 bits, as binary.ReadUvarint judges it.
func uvarint(w *[binary.MaxVarintLen64]byte) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range w {
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, 0
			}
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// unzigzag maps a zigzag-coded varint back to its signed value.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// tailRef decodes one reference the careful way, varint by varint.
func (d *Decoder) tailRef(r *ref.Ref) error {
	dpc, err := d.varint()
	if err != nil {
		return fmt.Errorf("tracefile: ref %d pc: %w", d.decoded, err)
	}
	daddr, err := d.varint()
	if err != nil {
		return fmt.Errorf("tracefile: ref %d addr: %w", d.decoded, err)
	}
	d.prevPC += dpc
	d.prevAddr += daddr
	*r = ref.Ref{PC: int(d.prevPC), Addr: uint64(d.prevAddr)}
	d.decoded++
	return nil
}

// Read decodes a trace written by Write, materializing it as one slice —
// fine for traces the caller chose to load (a -load file), wrong for
// untrusted network bodies, which should stream through a Decoder instead.
func Read(r io.Reader) ([]ref.Ref, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	// Pre-size from the header only up to a modest cap: the count is
	// attacker-controlled (a 9-byte file can claim 2^32 refs), so beyond the
	// cap the slice grows only as actual data arrives.
	sizeHint := d.count
	if sizeHint > 1<<16 {
		sizeHint = 1 << 16
	}
	refs := make([]ref.Ref, 0, sizeHint)
	var chunk [4096]ref.Ref
	for {
		n, err := d.Next(chunk[:])
		refs = append(refs, chunk[:n]...)
		if err == io.EOF {
			return refs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

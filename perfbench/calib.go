package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The virtual machine the benchmark runs on shares its host's memory system
// with other tenants, and how hard they use it changes over seconds to
// minutes: runs of the same code and seed a minute apart differed by up to
// 1.5x while a fixed integer loop stayed within 4%, and memory-bound work
// slowed with the program. So a fixed piece of memory-bound work that
// belongs to the benchmark, not to the program, is timed right before and
// right after every untraced round and set-up, while no part of the
// program runs and no garbage collection is under way, and the timings in
// between are scaled to a reference host speed by it (hostFactor). No
// change to the program changes the calibration work or what runs beside
// it, so a program that gets slower still reads slower.
const (
	// calibWords sizes the calibration table: 8 MiB, four times a core's
	// L2 cache on the build machine.
	calibWords = 1 << 20
	// calibOps is how many random reads, then read-modify-writes, one
	// calibration sample times.
	calibOps = 1 << 13
	// calibRefNs is a sample's median time at the reference host speed:
	// what it took on the 2-vCPU virtual machine the benchmark was built
	// on, in a calm stretch.
	calibRefNs = 58_000
	// calibSamples is how many samples are taken before and again after
	// each untraced round and each set-up.
	calibSamples = 8
)

// calibrator runs and times the calibration work. Its table is mapped
// outside the Go heap, so it moves neither the heap figures nor the garbage
// collector's pacing, and sampling allocates nothing.
type calibrator struct {
	table []uint64
	sink  uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	// Small pages always, whatever the host's transparent huge page
	// setting, so every run times the same kind of memory.
	syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE)
	c := &calibrator{table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibWords)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.table {
		x = xorshift(x)
		c.table[i] = x
	}
	return c, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// work makes calibOps random reads and then calibOps random
// read-modify-writes over the table.
func (c *calibrator) work() {
	const mask = calibWords - 1
	x := uint64(0x2545f4914f6cdd1d)
	acc := c.sink
	for i := 0; i < calibOps; i++ {
		x = xorshift(x)
		acc += c.table[x&mask]
	}
	for i := 0; i < calibOps; i++ {
		x = xorshift(x)
		c.table[x&mask] += acc
	}
	c.sink = acc
}

// sample returns one calibration time in nanoseconds. The untimed first
// pass brings the table back into the cache from wherever the program's
// work left it, so the timed pass measures the host and not the program's
// footprint.
func (c *calibrator) sample() float64 {
	c.work()
	t0 := time.Now()
	c.work()
	return float64(time.Since(t0))
}

// samples appends calibSamples calibration samples to xs. A nil
// calibrator appends none.
func (c *calibrator) samples(xs []float64) []float64 {
	if c == nil {
		return xs
	}
	for range calibSamples {
		xs = append(xs, c.sample())
	}
	return xs
}

// hostFactor turns the calibration samples that frame a round or a set-up
// into the factor its timings are divided by: the samples' median over the
// reference, 1 at the reference host speed and above 1 when the host runs
// slower. The program's time follows the calibration's about in proportion
// (README.md, "Host calibration").
func hostFactor(samples []float64) float64 {
	return median(samples) / calibRefNs
}

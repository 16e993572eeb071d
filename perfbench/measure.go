package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"decloud/internal/auction"
	"decloud/internal/auction/paralleltest"
	"decloud/internal/bidding"
	"decloud/internal/futures"
)

// CPU clocks: the whole process, or the calling OS thread only.
const (
	rusageSelf   = syscall.RUSAGE_SELF
	rusageThread = 1 // Linux's RUSAGE_THREAD
)

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// cpuTime returns the CPU time of the process (who = rusageSelf), from
// getrusage's user+system time, or of the calling thread (rusageThread).
// The thread's is read from CLOCK_THREAD_CPUTIME_ID: getrusage's
// per-thread figure is tick-scaled and reads 0 across calls of tens of
// microseconds.
func cpuTime(who int) time.Duration {
	if who == rusageThread {
		var ts syscall.Timespec
		if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
			return 0
		}
		return time.Duration(ts.Nano())
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func cpuSelf() time.Duration { return cpuTime(rusageSelf) }

// stealSeconds reads the host's cumulative steal time from /proc/stat
// (the eighth field of the aggregate cpu line, in USER_HZ = 100 ticks).
// It returns NaN when the file is unreadable, so a missing reading shows
// as such instead of as zero steal.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return math.NaN()
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return math.NaN()
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return math.NaN()
	}
	return ticks / 100
}

// Heap and allocation readings come from runtime/metrics, which needs no
// stop-the-world, so sampling at every block boundary costs microseconds.
// The heap reading is the live heap marked by the latest GC: unlike the
// heap including unswept garbage, it does not depend on where a block
// boundary falls in the GC cycle.
var memSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

type memReading struct{ heap, allocs, gcs uint64 }

func readMem() memReading {
	metrics.Read(memSamples)
	return memReading{memSamples[0].Value.Uint64(), memSamples[1].Value.Uint64(), memSamples[2].Value.Uint64()}
}

// phase accumulates one measured phase. Only the segments passed to
// begin/end count: the benchmark's own per-block checks and input
// handling run between segments, off the clock.
type phase struct {
	wall, cpu   time.Duration
	orders      int
	blockMS     []float64 // one per clearing call
	commitS     []float64 // per-order commit latency, when measured per order
	commitW     []float64 // weight of each commitS entry (orders it stands for)
	peakHeap    uint64
	heapBlocks  int // blocks over which peakHeap is sampled
	stealStart  float64
	realStart   time.Time
	segT0       time.Time
	segC0       time.Duration
	stealFrac   float64
	realElapsed time.Duration
}

// newPhase starts a measured phase. The peak heap is sampled over its
// first heapBlocks blocks only: the federation, the exchange and the
// chain keep per-order state, so a heap sampled over a whole timed phase
// would grow with the work done and read worse for a faster program.
func newPhase(heapBlocks int) *phase {
	runtime.GC()
	p := &phase{stealStart: stealSeconds(), realStart: time.Now(), heapBlocks: heapBlocks}
	p.peakHeap = readMem().heap
	return p
}

// sampleHeap records the heap at a block boundary within the sampled
// prefix.
func (p *phase) sampleHeap() {
	if len(p.blockMS) > p.heapBlocks {
		return
	}
	if h := readMem().heap; h > p.peakHeap {
		p.peakHeap = h
	}
}

func (p *phase) begin() { p.segC0 = cpuSelf(); p.segT0 = time.Now() }

// end closes a segment that committed orders orders and returns its
// wall time.
func (p *phase) end(orders int) time.Duration {
	d := time.Since(p.segT0)
	p.cpu += cpuSelf() - p.segC0
	p.wall += d
	p.orders += orders
	p.sampleHeap()
	return d
}

// block records one clearing call of the given duration that committed
// orders orders; every order of an in-process block is handed in when
// the call starts and committed when it returns.
func (p *phase) block(d time.Duration, orders int) {
	p.blockMS = append(p.blockMS, ms(d))
	p.commitS = append(p.commitS, d.Seconds())
	p.commitW = append(p.commitW, float64(orders))
}

func (p *phase) done(seconds float64) bool { return p.wall.Seconds() >= seconds }

func (p *phase) finish() {
	p.realElapsed = time.Since(p.realStart)
	p.stealFrac = (stealSeconds() - p.stealStart) / (p.realElapsed.Seconds() * float64(runtime.NumCPU()))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// weightedQuantile is the nearest-rank q-quantile of xs where xs[i]
// stands for w[i] samples.
func weightedQuantile(xs, w []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	idx := make([]int, len(xs))
	var total float64
	for i := range idx {
		idx[i] = i
		total += w[i]
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case xs[a] < xs[b]:
			return -1
		case xs[a] > xs[b]:
			return 1
		}
		return 0
	})
	target := q * total
	var acc float64
	for _, i := range idx {
		acc += w[i]
		if acc >= target {
			return xs[i]
		}
	}
	return xs[idx[len(idx)-1]]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// evidenceFor derives block b's public randomness from the seed, the way
// a chain derives it from each block's proof-of-work.
func evidenceFor(seed int64, label string, b int) []byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(b))
	h := sha256.Sum256(append([]byte(label), buf[:]...))
	return h[:]
}

// digest is the SHA-256 of an outcome's canonical encoding.
func digest(out *auction.Outcome) ([32]byte, error) {
	enc, err := paralleltest.MarshalOutcome(out)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(enc), nil
}

// allocated is the resource·time an outcome's matches occupy and the
// resource·time its offers declared — futures.RoundResult.Utilization's
// definition, which every workload's utilization uses.
func allocated(out *auction.Outcome, offs []*bidding.Offer) (used, capacity float64) {
	for i := range out.Matches {
		used += futures.GrantedLoad(&out.Matches[i])
	}
	for _, o := range offs {
		capacity += futures.OfferCapacity(o)
	}
	return used, capacity
}

// failure collects check failures; the run fails if any is recorded.
type failure struct{ msgs []string }

func (f *failure) add(format string, args ...any) {
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failure) ok() bool { return len(f.msgs) == 0 }

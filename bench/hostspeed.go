package main

import (
	"sort"
	"sync"
	"time"
)

// Host-speed normalization. On a shared host the CPUs change speed by
// tens of percent within seconds, which moves every wall-clock time the
// benchmark reads. The benchmark therefore times a fixed reference loop
// next to the ops and scales each measured time by
// refNominalMS / (reference loop time around it): times read as they
// would on the host at its nominal speed.
//
// The loop is compute-bound over a 32 KB buffer that stays in the L1
// cache, and allocates nothing, so the program's own cache footprint,
// allocation rate and garbage collection do not move it: a change that
// speeds the program up is not cancelled by a faster reference. A loop
// over a buffer in the shared last-level cache tracked the host's noise
// somewhat better but also tracked the program's own memory traffic.
// Raw times are printed beside the normalized ones.

// refNominalMS is the reference loop's duration on an idle 2-CPU host of
// the kind the bounds were set on.
const refNominalMS = 1.0

const refIters = 350000

// refBuf is the reference loop's working set, 32 KB.
type refBuf [4 << 10]uint64

// refLoop is the reference work: xorshift steps, loads and stores in buf,
// and a dependent floating-point chain. It returns a value derived from
// the chain so the work cannot be optimized away.
func refLoop(buf *refBuf) uint64 {
	x := uint64(88172645463325252)
	f := 1.0
	mask := uint64(len(buf) - 1)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		buf[j] += x
		f = f*1.0000001 + float64(buf[(j*31)&mask]&1023)
	}
	return uint64(f)
}

// speedometer records when the reference loop ran and how long it took.
// Each goroutine that issues ops has its own and samples before every op,
// so each op is scaled by the samples on either side of it, taken on the
// same goroutine under the same load. (Samples taken while the workload
// pauses, or from a separate goroutine, track the ops' speed far worse.)
type speedometer struct {
	mu   sync.Mutex
	at   []time.Time
	dur  []float64 // ms
	buf  refBuf
	sink uint64
}

// sample times the reference loop once on the calling goroutine. Only the
// goroutine that owns s may call it.
func (s *speedometer) sample() {
	t := time.Now()
	s.sink += refLoop(&s.buf)
	d := float64(time.Since(t)) / float64(time.Millisecond)
	s.mu.Lock()
	s.at = append(s.at, t)
	s.dur = append(s.dur, d)
	s.mu.Unlock()
}

// factor is the normalization factor for work done between from and to:
// refNominalMS over the median reference time of the samples started in
// that span, widened to the nearest samples until it holds at least
// four. The median keeps one sample that caught a stall from moving an
// op's time. It is 1 when there are no samples at all.
func (s *speedometer) factor(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.at)
	if n == 0 {
		return 1
	}
	lo := sort.Search(n, func(i int) bool { return !s.at[i].Before(from) })
	hi := sort.Search(n, func(i int) bool { return s.at[i].After(to) })
	for hi-lo < 4 && (lo > 0 || hi < n) {
		if lo > 0 {
			lo--
		}
		if hi < n {
			hi++
		}
	}
	return refNominalMS / median(s.dur[lo:hi])
}

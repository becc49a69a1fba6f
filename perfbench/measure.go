package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"partix/internal/engine"
	"partix/internal/obs"
)

// Runtime metrics read at window boundaries.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// counters is every work counter the program exports that a layer
// metric is derived from, read at one instant.
type counters struct {
	obs     map[string]float64
	eng     engine.Stats
	rt      []float64
	cpu     time.Duration // process user + system time
	stealed [2]uint64     // host steal and total jiffies
}

func readCounters(d *deployment) counters {
	c := counters{obs: obs.Default.Snapshot(), rt: readRuntime()}
	for _, nd := range d.nodes {
		c.eng.Add(nd.db.Stats())
	}
	c.cpu = processCPU()
	c.stealed = readSteal()
	return c
}

// delta is c − base for every counter; for the obs map only keys present
// in c.
func (c counters) delta(base counters) counters {
	out := counters{obs: map[string]float64{}, rt: make([]float64, len(c.rt))}
	for k, v := range c.obs {
		out.obs[k] = v - base.obs[k]
	}
	out.eng = c.eng
	out.eng.Add(negate(base.eng))
	for i := range c.rt {
		out.rt[i] = c.rt[i] - base.rt[i]
	}
	out.cpu = c.cpu - base.cpu
	out.stealed = [2]uint64{c.stealed[0] - base.stealed[0], c.stealed[1] - base.stealed[1]}
	return out
}

// add accumulates another delta.
func (c *counters) add(o counters) {
	if c.obs == nil {
		c.obs = map[string]float64{}
		c.rt = make([]float64, len(o.rt))
	}
	for k, v := range o.obs {
		c.obs[k] += v
	}
	c.eng.Add(o.eng)
	for i := range o.rt {
		c.rt[i] += o.rt[i]
	}
	c.cpu += o.cpu
	c.stealed[0] += o.stealed[0]
	c.stealed[1] += o.stealed[1]
}

func negate(s engine.Stats) engine.Stats {
	return engine.Stats{
		Queries: -s.Queries, Compiled: -s.Compiled, DocsDecoded: -s.DocsDecoded,
		DocsPruned: -s.DocsPruned, RangePruned: -s.RangePruned, IndexOnlyHits: -s.IndexOnlyHits,
		BytesDecoded: -s.BytesDecoded, CacheHits: -s.CacheHits, CacheMisses: -s.CacheMisses,
	}
}

func readRuntime() []float64 {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readSteal returns the host's steal and total jiffies summed over all
// CPUs from /proc/stat; zeros where it cannot be read.
func readSteal() [2]uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return [2]uint64{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return [2]uint64{}
	}
	var total, steal uint64
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return [2]uint64{}
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]uint64{steal, total}
}

// heapSampler records the highest heap in use in each heapBucket of the
// window while it runs.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []uint64 // per bucket; written by the sampler until done is closed
}

const heapBucket = 100 * time.Millisecond

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			b := int(time.Since(start) / heapBucket)
			for len(h.peaks) <= b {
				h.peaks = append(h.peaks, 0)
			}
			h.peaks[b] = max(h.peaks[b], sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns, in bytes, the
// median over the window's parts equal stretches of each stretch's
// highest heap in use. One garbage collection that finishes late, which
// sets the highest heap of the whole window, moves it little.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	var per []float64
	n := len(h.peaks)
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		if lo == hi {
			continue
		}
		per = append(per, float64(slices.Max(h.peaks[lo:hi])))
	}
	return uint64(medianFloat(per))
}

// The timed window is split into parts equal parts, by round for the
// latency figures and by time for the heap. The latency figures pool the
// reads of the quietParts parts in which the host stole the least CPU
// time from the process.
const (
	parts      = 15
	quietParts = 5
)

// quietest returns the quietParts parts with the least host steal, from
// steal readings taken at the start of every round and at the end of the
// last. Ties go to the earlier part; parts without rounds are left out.
func quietest(steal [][2]uint64, rounds int) map[int]bool {
	type part struct {
		p     int
		share float64
	}
	var ps []part
	for p := 0; p < parts; p++ {
		if lo, hi := partRounds(p, rounds); lo < hi {
			ps = append(ps, part{p, partSteal(steal, rounds, p)})
		}
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].share < ps[j].share })
	out := map[int]bool{}
	for i := 0; i < len(ps) && i < quietParts; i++ {
		out[ps[i].p] = true
	}
	return out
}

// partRounds is the rounds lo..hi-1 that partOf assigns to part p.
func partRounds(p, rounds int) (lo, hi int) {
	return (p*rounds + parts - 1) / parts, ((p+1)*rounds + parts - 1) / parts
}

// partSteal is the host's steal share over the rounds of part p.
func partSteal(steal [][2]uint64, rounds, p int) float64 {
	lo, hi := partRounds(p, rounds)
	a, b := steal[lo], steal[hi]
	return ratio(float64(b[0]-a[0]), float64(b[1]-a[1]))
}

// partOf is the part a round falls in.
func partOf(round, rounds int) int { return round * parts / rounds }

// quantile is the nearest-rank q-quantile of ds (0 for none).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCount is attempts and failures of one operation type.
type opCount struct{ attempted, failed int }

type opCounts struct {
	order []string
	m     map[string]*opCount
}

func (o *opCounts) note(kind string, failed bool) {
	if o.m == nil {
		o.m = map[string]*opCount{}
	}
	c := o.m[kind]
	if c == nil {
		c = &opCount{}
		o.m[kind] = c
		o.order = append(o.order, kind)
	}
	c.attempted++
	if failed {
		c.failed++
	}
}

func (o *opCounts) totals() (attempted, failed int) {
	for _, c := range o.m {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

func (o *opCounts) String() string {
	var parts []string
	for _, k := range o.order {
		c := o.m[k]
		parts = append(parts, fmt.Sprintf("%s=%d/%d", k, c.failed, c.attempted))
	}
	return strings.Join(parts, " ")
}

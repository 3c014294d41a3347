package workload

import (
	"fmt"
	"math"

	"repro/internal/cpu"
)

// Generator is a deterministic trace synthesizer implementing
// cpu.TraceReader for one benchmark instance. Two generators with the
// same spec, seed and address window produce identical traces.
//
// Hot traffic is produced by Streams concurrent sweep streams, each
// looping over its share of the hot set in a fixed order. Hot ranks map
// to scattered physical segments (one per DRAM row), so a sweep revisits
// DRAM rows in a consistent per-bank order on every pass — the temporal
// correlation between co-inserted row segments that FIGCache's
// row-granularity packing turns into DRAM row-buffer hits. Cold traffic
// is uniform over the footprint.
type Generator struct {
	spec BenchSpec
	rng  splitmix64

	// Address window: the generator emits addresses in
	// [base, base+span). For multiprogrammed mixes, each core receives a
	// disjoint window; multithreaded workloads share one. The footprint's
	// logical segments are scattered over the whole window by an
	// injective stride map, mimicking OS page placement: without it a
	// small footprint would occupy only the lowest rows of every bank
	// (e.g. exactly the reserved subarray FIGCache-Slow excludes).
	base   uint64
	span   uint64
	layout Layout

	streams    []sweepStream
	streamZipf *zipfSampler //fglint:preserved precomputed CDF, read-only after construction; sampling draws from the serialized rng

	// Burst state: remaining sequential blocks of the current run.
	runLeft int
	runAddr uint64

	totalSegments int64
	spanSegments  uint64
	hotStride     uint64
	spreadStride  uint64
}

// sweepStream loops over hot ranks [lo, hi).
type sweepStream struct {
	lo, hi, pos int64
}

// Layout describes how the generator maps logical hot segments onto
// physical addresses.
type Layout struct {
	// RowStrideBytes is the address distance between two rows of the same
	// bank under the system's address interleaving (row bytes x channels
	// x banks x ranks). When non-zero, the generator places groups of
	// eight consecutive hot ranks in the *same bank but different rows*
	// (see hotPhys): the bank-conflict chains Section 8.1 describes, which
	// conventional DRAM serves with a precharge+activate per access and
	// FIGCache collapses into one cache row. Zero scatters hot segments
	// uniformly instead.
	RowStrideBytes uint64
	// LayoutSeed, when non-zero, decouples the logical-to-physical address
	// mapping from the generator seed. Threads of a multithreaded
	// application must share a LayoutSeed so the same logical segment maps
	// to the same physical address for every thread, while their access
	// interleavings (driven by the per-thread seed) still differ.
	LayoutSeed uint64
}

// NewGenerator builds a generator with uniform hot-segment scatter; see
// NewGeneratorLayout for the bank-conflict-group layout.
func NewGenerator(spec BenchSpec, seed uint64, base uint64, span uint64) (*Generator, error) {
	return NewGeneratorLayout(spec, seed, base, span, Layout{})
}

// NewGeneratorLayout builds a generator for spec with the given seed,
// emitting addresses in [base, base+span). span must be a power-of-two
// multiple of the segment size and at least the footprint; 0 selects the
// footprint rounded up to a power of two.
func NewGeneratorLayout(spec BenchSpec, seed uint64, base uint64, span uint64, layout Layout) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if span == 0 {
		span = nextPow2(uint64(spec.FootprintBytes))
	}
	if span&(span-1) != 0 || span%segmentBytes != 0 {
		return nil, fmt.Errorf("workload %s: span %d must be a power-of-two multiple of %d",
			spec.Name, span, segmentBytes)
	}
	if span < uint64(spec.FootprintBytes) {
		return nil, fmt.Errorf("workload %s: span %d below footprint %d", spec.Name, span, spec.FootprintBytes)
	}
	if layout.RowStrideBytes > 0 {
		if layout.RowStrideBytes%segmentBytes != 0 || span%layout.RowStrideBytes != 0 {
			return nil, fmt.Errorf("workload %s: row stride %d must divide span %d and be a multiple of %d",
				spec.Name, layout.RowStrideBytes, span, segmentBytes)
		}
	}
	g := &Generator{
		spec:          spec,
		rng:           splitmix64(seed*0x9e3779b97f4a7c15 + 1),
		base:          base,
		span:          span,
		layout:        layout,
		totalSegments: spec.FootprintBytes / segmentBytes,
		spanSegments:  span / segmentBytes,
	}
	// An odd stride modulo a power-of-two segment count is a bijection,
	// so distinct logical segments land on distinct physical segments.
	layoutSeed := layout.LayoutSeed
	if layoutSeed == 0 {
		layoutSeed = seed
	}
	g.spreadStride = (layoutSeed*2654435761 + 0x9e3779b9) | 1
	// Partition the hot ranks into one contiguous range per stream, and
	// stagger starting positions so streams do not march in lockstep.
	per := int64(spec.HotSegments) / int64(spec.Streams)
	if per < 1 {
		per = 1
	}
	for i := 0; i < spec.Streams; i++ {
		lo := int64(i) * per
		hi := lo + per
		if i == spec.Streams-1 {
			hi = int64(spec.HotSegments)
		}
		if lo >= hi {
			break
		}
		start := lo + int64(g.rng.next()%uint64(hi-lo))
		g.streams = append(g.streams, sweepStream{lo: lo, hi: hi, pos: start})
	}
	g.streamZipf = newZipfSampler(len(g.streams), spec.ZipfTheta)
	// Hot ranks are scattered across the footprint with a fixed odd
	// stride, so they land in distinct DRAM rows and banks: one hot
	// segment per row, the paper's limited-row-locality regime.
	g.hotStride = oddStride(uint64(g.totalSegments))
	return g, nil
}

// Next implements cpu.TraceReader.
func (g *Generator) Next() cpu.TraceRecord {
	if g.runLeft == 0 {
		g.startBurst()
	}
	addr := g.runAddr
	g.runAddr += blockBytes
	g.runLeft--

	isWrite := g.rng.float64() < g.spec.WriteFrac
	// Jitter bubbles ±50% around the mean for irregular arrival times.
	b := g.spec.Bubbles
	if b > 1 {
		b = b/2 + int(g.rng.next()%uint64(g.spec.Bubbles))
	}
	return cpu.TraceRecord{Bubbles: b, Addr: addr, IsWrite: isWrite}
}

// startBurst picks the next segment (hot via a sweep stream, or cold
// uniform) and a block run inside it.
func (g *Generator) startBurst() {
	var phys uint64
	if g.rng.float64() < g.spec.HotFraction {
		st := &g.streams[g.streamZipf.sample(&g.rng)]
		rank := st.pos
		st.pos++
		if st.pos >= st.hi {
			st.pos = st.lo
		}
		phys = g.hotPhys(uint64(rank))
	} else {
		segIdx := g.rng.next() % uint64(g.totalSegments)
		// Spread cold segments over the whole window (injective for
		// power-of-two spanSegments and odd stride).
		phys = (segIdx * g.spreadStride) % g.spanSegments
	}

	blocksPerSeg := int64(segmentBytes / blockBytes)
	run := g.spec.SeqRun
	start := int64(0)
	if run < int(blocksPerSeg) {
		start = int64(g.rng.next() % uint64(blocksPerSeg-int64(run)+1))
	}
	g.runAddr = g.base + phys*segmentBytes + uint64(start*blockBytes)
	g.runLeft = run
}

// hotPhys maps a hot rank to its physical segment within the window.
//
// Without a layout, ranks scatter uniformly (one hot segment per DRAM
// row). With a bank-conflict layout, conflictGroup consecutive ranks
// share a bank-slot (the same channel/bank/segment-in-row position) but
// occupy different rows: a sweep then produces chains of same-bank row
// conflicts on conventional DRAM, while FIGCache co-locates the whole
// group into a single in-DRAM cache row (Section 8.1).
func (g *Generator) hotPhys(rank uint64) uint64 {
	if g.layout.RowStrideBytes == 0 {
		logical := (rank * g.hotStride) % uint64(g.totalSegments)
		return (logical * g.spreadStride) % g.spanSegments
	}
	// One in-DRAM cache row's worth of segments per conflict group.
	const conflictGroup = 8
	group, member := rank/conflictGroup, rank%conflictGroup
	slotsPerStride := g.layout.RowStrideBytes / segmentBytes
	rows := g.span / g.layout.RowStrideBytes
	// The group's bank-slot: one of the channel/bank/segment positions
	// within a row stride, chosen by an odd-stride hash so groups spread
	// over all banks.
	slot := (group * g.spreadStride) % slotsPerStride
	// The member's row: consecutive members land in distinct rows spread
	// across the bank (multiplication by an odd constant is injective
	// modulo the power-of-two row count).
	row := ((group*0x9e3779b9 + member*g.hotStride) * 2654435761) % rows
	return row*slotsPerStride + slot
}

// nextPow2 rounds v up to a power of two.
func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// zipfSampler draws ranks in [0,n) with probability proportional to
// 1/(rank+1)^theta, via inverse-CDF binary search over a precomputed
// table. theta = 0 degenerates to uniform.
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(n int, theta float64) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) sample(rng *splitmix64) int {
	u := rng.float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitmix64 is the deterministic PRNG used throughout trace generation.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// oddStride derives a large odd stride co-prime with any power-of-two
// segment count, spreading consecutive hot ranks across the footprint.
func oddStride(n uint64) uint64 {
	s := (n/2 + 1) | 1
	// Golden-ratio-ish multiplier keeps ranks far apart for small n too.
	s = s*2654435761 | 1
	if n > 0 {
		s %= n
		if s == 0 {
			s = 1
		}
		s |= 1
	}
	return s
}

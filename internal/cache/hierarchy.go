package cache

import "fmt"

// HierarchyConfig describes the full SRAM hierarchy of Table 1.
type HierarchyConfig struct {
	L1    Config
	L2    Config
	LLC   Config // total size; the caller scales by core count
	Cores int
}

// DefaultHierarchyConfig returns Table 1's hierarchy for the given core
// count: L1 4-way 64 kB, L2 8-way 256 kB, LLC 16-way 2 MB per core,
// 64 B blocks, 8 MSHRs per core.
func DefaultHierarchyConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		L1:    Config{Name: "L1", SizeBytes: 64 << 10, Ways: 4, BlockBytes: 64, Latency: 4, MSHRs: 8},
		L2:    Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, BlockBytes: 64, Latency: 12},
		LLC:   Config{Name: "LLC", SizeBytes: cores * (2 << 20), Ways: 16, BlockBytes: 64, Latency: 38},
	}
}

// Hierarchy wires per-core L1+L2 caches to a shared LLC over a memory
// backend. It also acts as the cache node registry: every level gets a
// dense node ID in construction order (LLC first, then each core's L2
// and L1), the identifier MSHR event tokens carry so the dispatcher —
// and a restored checkpoint — can route them back to their cache.
type Hierarchy struct {
	L1s []*Cache
	L2s []*Cache
	LLC *Cache

	nodes []*Cache // topology registry, fixed at construction
}

// NewHierarchy builds the hierarchy on top of mem, a memory of memBytes
// bytes. Before it builds anything it refuses a memory that some
// level's tags cannot reach (Config.Reach), where two addresses would
// share a line. Each level takes the scheduler sched returns for its
// lookup latency, in construction order: the LLC's, then each core's
// L2's and L1's. sched may hand the same scheduler to every level with
// one latency, because tokens from several caches at one delay still
// become due in schedule order.
func NewHierarchy(cfg HierarchyConfig, memBytes uint64, mem Backend, sched func(latency int64) Scheduler) (*Hierarchy, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("cache: cores must be positive, got %d", cfg.Cores)
	}
	for _, l := range []Config{cfg.L1, cfg.L2, cfg.LLC} {
		if err := l.Validate(); err != nil {
			return nil, err
		}
		if reach := l.Reach(); memBytes > reach {
			return nil, fmt.Errorf("cache %s: %d-bit tags reach %d bytes, short of the %d-byte memory",
				l.Name, tagBits, reach, memBytes)
		}
	}
	llc, err := New(cfg.LLC, mem, sched(cfg.LLC.Latency), -1)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{LLC: llc}
	h.register(llc)
	for i := 0; i < cfg.Cores; i++ {
		l2cfg := cfg.L2
		l2cfg.Name = fmt.Sprintf("L2.%d", i)
		l2, err := New(l2cfg, llc, sched(l2cfg.Latency), i)
		if err != nil {
			return nil, err
		}
		l1cfg := cfg.L1
		l1cfg.Name = fmt.Sprintf("L1.%d", i)
		l1, err := New(l1cfg, l2, sched(l1cfg.Latency), i)
		if err != nil {
			return nil, err
		}
		h.register(l2)
		h.register(l1)
		h.L1s = append(h.L1s, l1)
		h.L2s = append(h.L2s, l2)
	}
	return h, nil
}

// register assigns the next node ID to c.
func (h *Hierarchy) register(c *Cache) {
	c.SetNodeID(int32(len(h.nodes)))
	h.nodes = append(h.nodes, c)
}

// Node returns the cache with the given node ID.
func (h *Hierarchy) Node(id int32) *Cache { return h.nodes[id] }

// Nodes returns every cache level in node-ID order.
func (h *Hierarchy) Nodes() []*Cache { return h.nodes }

// LLCMPKI returns the last-level-cache misses per kilo-instruction given
// the retired instruction count — the paper's memory-intensity metric
// (Table 2 classifies applications at 10 MPKI).
func (h *Hierarchy) LLCMPKI(instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(h.LLC.Misses) / float64(instructions) * 1000
}

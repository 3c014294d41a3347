package dram

import "fmt"

// Geometry describes the physical organization of one memory channel.
// The default values (see Default) match Table 1 of the paper: 1 rank,
// 4 bank groups with 4 banks each, 64 subarrays per bank, 8 kB rows and
// 4 GB of capacity per channel.
type Geometry struct {
	Ranks            int // ranks per channel
	BankGroups       int // bank groups per rank
	BanksPerGroup    int // banks per bank group
	SubarraysPerBank int // regular (slow) subarrays per bank
	RowsPerSubarray  int // rows per regular subarray
	RowBytes         int // bytes per row across the rank (8 kB in DDR4)
	BlockBytes       int // bytes per cache block / rank-level column (64 B)

	// FastSubarrays is the number of additional small, low-latency
	// subarrays per bank (the in-DRAM cache region for FIGCache-Fast and
	// LISA-VILLA). Zero for conventional homogeneous banks.
	FastSubarrays int
	// RowsPerFastSubarray is the number of rows in each fast subarray
	// (32 in the paper's configuration, versus 512 for slow subarrays).
	RowsPerFastSubarray int
}

// Default returns the channel geometry from Table 1 of the paper.
func Default() Geometry {
	return Geometry{
		Ranks:               1,
		BankGroups:          4,
		BanksPerGroup:       4,
		SubarraysPerBank:    64,
		RowsPerSubarray:     512,
		RowBytes:            8 * 1024,
		BlockBytes:          64,
		FastSubarrays:       0,
		RowsPerFastSubarray: 32,
	}
}

// BanksPerRank returns the number of banks in one rank.
func (g Geometry) BanksPerRank() int { return g.BankGroups * g.BanksPerGroup }

// RowsPerBank returns the number of regular (addressable) rows in a bank,
// excluding any cache-only rows in fast subarrays.
func (g Geometry) RowsPerBank() int { return g.SubarraysPerBank * g.RowsPerSubarray }

// CacheRowsPerBank returns the number of rows available in the fast
// subarrays of a bank. These rows are cache-only: they are inclusive
// copies of regular rows and invisible to the operating system.
func (g Geometry) CacheRowsPerBank() int { return g.FastSubarrays * g.RowsPerFastSubarray }

// BlocksPerRow returns the number of cache blocks held by one row.
func (g Geometry) BlocksPerRow() int { return g.RowBytes / g.BlockBytes }

// ChannelBytes returns the OS-visible capacity of one channel.
func (g Geometry) ChannelBytes() int64 {
	return int64(g.Ranks) * int64(g.BanksPerRank()) * int64(g.RowsPerBank()) * int64(g.RowBytes)
}

// SubarrayOfRow returns the index of the regular subarray containing a
// regular row.
func (g Geometry) SubarrayOfRow(row int) int { return row / g.RowsPerSubarray }

// maxBanks bounds a channel's bank count: the memory controller keeps
// its per-bank sets in one 64-bit word. Table 1's channel has 16 banks.
const maxBanks = 64

// Validate reports an error if the geometry is internally inconsistent.
func (g Geometry) Validate() error {
	switch {
	case g.Ranks <= 0:
		return fmt.Errorf("dram: ranks must be positive, got %d", g.Ranks)
	case g.BankGroups <= 0 || g.BanksPerGroup <= 0:
		return fmt.Errorf("dram: bank groups (%d) and banks per group (%d) must be positive",
			g.BankGroups, g.BanksPerGroup)
	case g.BanksPerGroup > maxBanks/g.Ranks/g.BankGroups: // by division, so no product overflows
		return fmt.Errorf("dram: %d ranks of %d bank groups of %d banks exceed the %d-bank channel bound",
			g.Ranks, g.BankGroups, g.BanksPerGroup, maxBanks)
	case g.SubarraysPerBank <= 0 || g.RowsPerSubarray <= 0:
		return fmt.Errorf("dram: subarrays (%d) and rows per subarray (%d) must be positive",
			g.SubarraysPerBank, g.RowsPerSubarray)
	case g.RowBytes <= 0 || g.BlockBytes <= 0 || g.RowBytes%g.BlockBytes != 0:
		return fmt.Errorf("dram: row bytes (%d) must be a positive multiple of block bytes (%d)",
			g.RowBytes, g.BlockBytes)
	case g.FastSubarrays < 0 || g.RowsPerFastSubarray < 0:
		return fmt.Errorf("dram: fast subarray counts must be non-negative")
	case g.FastSubarrays > 0 && g.RowsPerFastSubarray == 0:
		return fmt.Errorf("dram: fast subarrays configured with zero rows")
	}
	return nil
}

// Location identifies one cache block within a channel, fully decoded.
// Row is a regular row index within the bank unless CacheRow is true, in
// which case Row indexes the bank's cache-only row space (fast subarrays
// or reserved rows, depending on the cache organization).
type Location struct {
	Rank     int
	Group    int // bank group
	Bank     int // bank within group
	Row      int
	Block    int  // block (rank-level column) within the row
	CacheRow bool // true if Row addresses the in-DRAM cache row space
}

// BankID returns a dense index for the bank within the channel.
func (l Location) BankID(g Geometry) int {
	return (l.Rank*g.BankGroups+l.Group)*g.BanksPerGroup + l.Bank
}

// HasBank reports whether l's rank, bank group and bank exist in g, so
// that BankID indexes a bank of a channel with this geometry.
func (g Geometry) HasBank(l Location) bool {
	return l.Rank >= 0 && l.Rank < g.Ranks && l.Group >= 0 && l.Group < g.BankGroups &&
		l.Bank >= 0 && l.Bank < g.BanksPerGroup
}

func (l Location) String() string {
	space := "row"
	if l.CacheRow {
		space = "cacherow"
	}
	return fmt.Sprintf("r%d.g%d.b%d.%s%d.blk%d", l.Rank, l.Group, l.Bank, space, l.Row, l.Block)
}

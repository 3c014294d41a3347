package dram

import "fmt"

// CmdType enumerates the DRAM commands the memory controller may issue.
// ACT, PRE, RD, WR and REF are standard DDR4 commands. RELOC is the new
// FIGARO command (Section 4.1): it copies one column of data between the
// local row buffers of two subarrays in a bank through the global row
// buffer. RBM is the LISA row-buffer-movement operation used by the
// LISA-VILLA baseline to relocate a full row between adjacent subarrays.
type CmdType int

const (
	CmdACT CmdType = iota
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
	CmdRELOC
	CmdRBM

	numCmdTypes
)

var cmdNames = [numCmdTypes]string{"ACT", "PRE", "RD", "WR", "REF", "RELOC", "RBM"}

func (c CmdType) String() string {
	if c < 0 || int(c) >= len(cmdNames) {
		return fmt.Sprintf("CmdType(%d)", int(c))
	}
	return cmdNames[c]
}

// Command is one command addressed to a bank (or rank, for REF).
type Command struct {
	Type CmdType
	Loc  Location
}

// CommandTrace records an issued command for debugging and verification.
// End is non-zero only for multi-cycle in-DRAM operations (RELOC/RBM
// bursts): the cycle the bank becomes available again.
type CommandTrace struct {
	At  int64 // bus cycle of issue
	End int64 // occupancy end for RELOC/RBM entries, else 0
	Cmd Command
}

func (ct CommandTrace) String() string {
	return fmt.Sprintf("%8d %-5s %s", ct.At, ct.Cmd.Type, ct.Cmd.Loc)
}

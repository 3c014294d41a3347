// Package spice provides analytic circuit-level models standing in for
// the paper's SPICE methodology (Section 4.2): the RELOC charge-sharing
// and sense-amplification transient that determines the RELOC latency
// (Figure 5), with Monte-Carlo parameter variation and worst-case
// reporting, plus the area/storage overhead calculations of Section 8.3.
//
// The model is a first-order RC + regenerative-latch approximation rather
// than transistor-level SPICE. It is calibrated so the nominal transient
// reproduces the paper's observations: the destination bitlines settle in
// well under 1 ns, the worst Monte-Carlo corner is ~0.57 ns, and a 43%
// guardband yields the 1 ns RELOC timing parameter.
//
// Like internal/energy, this is an analysis layer beside the timing
// simulator, not inside it: the harness calls it to render Figure 5 and
// the Section 4.2/8.3 tables, and its Monte-Carlo iteration count is the
// only part of the experiment matrix it contributes to (harness.Scale's
// MCIterations). Its computations produce no sim jobs, so a fleet
// leases none of it — whoever renders the tables re-derives them
// locally when asked.
package spice

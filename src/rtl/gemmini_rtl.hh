/**
 * @file
 * Gemmini-RTL substitute: a deterministic cycle-approximate latency
 * simulator standing in for FireSim RTL simulation (Section 6.5).
 *
 * The paper's premise is that real hardware deviates from analytical
 * models through implementation effects that are hard to express in
 * closed form but *systematic* — and therefore learnable by a small
 * DNN. This simulator reproduces that premise: it starts from the
 * reference model's exactly counted traffic and layers on physically
 * motivated effects of a decoupled-access-execute systolic-array SoC:
 *
 *  - per-DMA-transaction startup latency (tile moves are transactions,
 *    so fine-grained tilings pay heavily — the dominant reason random
 *    mappings diverge from analytical predictions),
 *  - systolic-array fill/drain bubbles per accumulator tile,
 *  - scratchpad bank conflicts when the spatial C fanout is not a
 *    multiple of the bank count,
 *  - DRAM row/alignment penalties for narrow, unaligned bursts,
 *  - a load/compute overlap factor below 100% (imperfect double
 *    buffering), and per-instruction front-end overhead.
 *
 * All effects are deterministic functions of (layer, mapping, hw), so
 * datasets are reproducible. README.md's substitutes table maps each
 * paper component to the stand-in built here.
 */

#ifndef DOSA_RTL_GEMMINI_RTL_HH
#define DOSA_RTL_GEMMINI_RTL_HH

#include "arch/hardware_config.hh"
#include "mapping/mapping.hh"
#include "workload/layer.hh"

namespace dosa {

/** Tunable constants of the RTL-like simulator. */
struct RtlParams
{
    double dma_startup_cycles = 80.0;   ///< per DMA transaction
    double fill_drain_per_tile = 2.0;   ///< x pe_dim cycles per acc tile
    double bank_conflict_factor = 1.18; ///< spad penalty on odd fanout
    int64_t spad_banks = 4;
    double unaligned_dram_factor = 1.12;///< bursts not 64 B aligned
    double overlap_efficiency = 0.85;   ///< load/compute overlap < 1
    double insn_overhead_cycles = 6.0;  ///< per issued tile instruction
};

/**
 * Cycle-approximate latency of one layer under one mapping. The
 * mapping must be complete; fit violations are tolerated (real RTL
 * would spill) and modelled with a steep penalty factor so searchers
 * avoid them.
 */
double rtlLatency(const Layer &layer, const Mapping &mapping,
                  const HardwareConfig &hw,
                  const RtlParams &params = RtlParams());

} // namespace dosa

#endif // DOSA_RTL_GEMMINI_RTL_HH

/**
 * @file
 * Gemmini-style accelerator configuration and the Table-2 energy /
 * bandwidth model.
 *
 * The memory hierarchy (Table 4) is fixed: level 0 per-PE registers
 * holding weights, level 1 accumulator SRAM holding outputs (4 B words),
 * level 2 scratchpad SRAM holding weights+inputs (1 B words), level 3
 * DRAM holding everything. The free hardware parameters are the square
 * PE-array side and the two SRAM capacities.
 */

#ifndef DOSA_ARCH_HARDWARE_CONFIG_HH
#define DOSA_ARCH_HARDWARE_CONFIG_HH

#include <cmath>
#include <cstdint>
#include <string>

#include "workload/layer.hh"

namespace dosa {

/** Memory level indices (Table 2/4). */
enum MemLevel : int
{
    kRegisters = 0,
    kAccumulator = 1,
    kScratchpad = 2,
    kDram = 3,
};

/** Number of memory levels. */
constexpr int kNumLevels = 4;

/** Human-readable level name. */
const char *levelName(int level);

/** Bytes per word of each tensor (paper Fig. 3): W/I 1 B, O 4 B. */
constexpr double
wordBytes(Tensor t)
{
    return t == Tensor::Output ? 4.0 : 1.0;
}

/** Whether memory level `level` stores tensor `t` (Table 4 matrix B). */
constexpr bool
levelHoldsTensor(int level, Tensor t)
{
    switch (level) {
      case kRegisters:
        return t == Tensor::Weight;
      case kAccumulator:
        return t == Tensor::Output;
      case kScratchpad:
        return t == Tensor::Weight || t == Tensor::Input;
      case kDram:
        return true;
      default:
        return false;
    }
}

/** Innermost memory level that holds tensor t (W:0, O:1, I:2). */
constexpr int
innermostLevel(Tensor t)
{
    switch (t) {
      case Tensor::Weight: return kRegisters;
      case Tensor::Output: return kAccumulator;
      case Tensor::Input: return kScratchpad;
    }
    return kDram;
}

/** Next inner level below `level` that holds tensor t, or -1. */
constexpr int
nextInnerLevel(int level, Tensor t)
{
    for (int j = level - 1; j >= 0; --j)
        if (levelHoldsTensor(j, t))
            return j;
    return -1;
}

/**
 * A concrete hardware design point.
 *
 * Capacities are stated per logical buffer; like the paper we quote
 * single-buffer sizes (Gemmini default 32 KB accumulator / 128 KB
 * scratchpad, doubling for double-buffering is out of model scope).
 */
struct HardwareConfig
{
    int64_t pe_dim = 16;    ///< side of the square PE array
    int64_t accum_kib = 32; ///< accumulator SRAM capacity, KiB
    int64_t spad_kib = 128; ///< scratchpad SRAM capacity, KiB

    /** Total PE count C_PE = pe_dim^2 (Eq 1). */
    double cpe() const
    {
        return static_cast<double>(pe_dim) * static_cast<double>(pe_dim);
    }

    /** Accumulator capacity in (4-byte) words. */
    double accumWords() const
    {
        return static_cast<double>(accum_kib) * 1024.0 / 4.0;
    }

    /** Scratchpad capacity in (1-byte) words. */
    double spadWords() const
    {
        return static_cast<double>(spad_kib) * 1024.0;
    }

    /** Human-readable description. */
    std::string str() const;

    bool operator==(const HardwareConfig &o) const = default;
};

/** Maximum supported PE-array side (Section 6.1: capped at 128x128). */
constexpr int64_t kMaxPeDim = 128;

/**
 * Round raw per-mapping requirements up to a manufacturable config:
 * integer PE side (clamped to [1, kMaxPeDim]) and SRAM sizes in whole
 * KiB increments (Section 6.1).
 */
HardwareConfig quantizeConfig(double pe_dim, double accum_words,
                              double spad_words);

/**
 * Parameter-wise max of two configs (Fig. 3: the final design must
 * support all per-layer mappings).
 */
HardwareConfig configMax(const HardwareConfig &a, const HardwareConfig &b);

/**
 * Table 2 energy-per-access and bandwidth model, parameterized on the
 * scalar type so gradients can flow through derived hardware sizes.
 *
 * EPA values are in pJ/word (the paper prints "uJ", evidently a unit
 * typo — 100 pJ/word DRAM is the standard figure). The SRAM EPA grows
 * with capacity per Table 2; the capacity term is taken in KiB, the
 * only reading that keeps SRAM accesses in the physically plausible
 * few-pJ range (CACTI 40nm) for the buffer sizes the paper's Table 7
 * selects — in words, a 196 KB accumulator access would cost 300+ pJ
 * and the optimizer would never grow buffers as the paper observes.
 */
struct EnergyModel
{
    static constexpr double kEpaMac = 0.561;       ///< pJ per MAC
    static constexpr double kEpaRegister = 0.487;  ///< pJ per word
    static constexpr double kEpaAccumBase = 1.94;
    static constexpr double kEpaAccumSlope = 0.1005; ///< per KiB/col
    static constexpr double kEpaSpadBase = 0.49;
    static constexpr double kEpaSpadSlope = 0.025;   ///< per KiB/col
    static constexpr double kEpaDram = 100.0;      ///< pJ per word
    static constexpr double kDramBandwidth = 8.0;  ///< words per cycle

    /** Accumulator EPA given capacity (4-byte words) and C_PE. */
    template <class S>
    static S
    accumEpa(const S &capacity_words, const S &cpe)
    {
        using std::sqrt;
        S kib = capacity_words * S(4.0 / 1024.0);
        return S(kEpaAccumBase) + S(kEpaAccumSlope) * kib / sqrt(cpe);
    }

    /** Scratchpad EPA given capacity (1-byte words) and C_PE. */
    template <class S>
    static S
    spadEpa(const S &capacity_words, const S &cpe)
    {
        using std::sqrt;
        S kib = capacity_words * S(1.0 / 1024.0);
        return S(kEpaSpadBase) + S(kEpaSpadSlope) * kib / sqrt(cpe);
    }

    /** Bandwidth of a level in words/cycle (Table 2). */
    template <class S>
    static S
    bandwidth(int level, const S &cpe)
    {
        using std::sqrt;
        switch (level) {
          case kRegisters:
            return S(2.0) * cpe;
          case kAccumulator:
          case kScratchpad:
            return S(2.0) * sqrt(cpe);
          case kDram:
            return S(kDramBandwidth);
          default:
            return S(1.0);
        }
    }
};

} // namespace dosa

#endif // DOSA_ARCH_HARDWARE_CONFIG_HH

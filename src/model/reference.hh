/**
 * @file
 * The Timeloop-substitute reference model.
 *
 * An independently coded, integer-exact "iterative program" evaluator
 * for concrete mappings, playing the role Timeloop+Accelergy play in
 * the paper: the trusted ground truth that the differentiable model is
 * validated against (Fig. 4) and that the black-box searchers sample.
 *
 * It differs from the differentiable model deliberately in one place
 * the paper calls out: DRAM energy is computed from the number of
 * 64-byte blocks touched (a ceiling per tensor), not from raw element
 * counts, which produces the small-layer divergence of Fig. 4.
 */

#ifndef DOSA_MODEL_REFERENCE_HH
#define DOSA_MODEL_REFERENCE_HH

#include <array>
#include <functional>
#include <vector>

#include "arch/hardware_config.hh"
#include "mapping/mapping.hh"
#include "workload/layer.hh"

namespace dosa {

/** DRAM burst granularity used for block-quantized accounting. */
constexpr double kDramBlockBytes = 64.0;

/** Detailed per-layer reference evaluation. */
struct RefEval
{
    double latency = 0.0;      ///< cycles
    double energy_uj = 0.0;    ///< microjoules
    double edp = 0.0;          ///< uJ * cycles

    /** Per-level total word accesses (DRAM entry is in words too). */
    std::array<double, kNumLevels> accesses{};
    /** reads[level][tensor] in words. */
    std::array<std::array<double, kNumTensors>, kNumLevels> reads{};
    /** writes[level][tensor] in words. */
    std::array<std::array<double, kNumTensors>, kNumLevels> writes{};
    /** updates[level] in words. */
    std::array<double, kNumLevels> updates{};

    double dram_bytes = 0.0;        ///< raw DRAM traffic
    double dram_bytes_quant = 0.0;  ///< block-quantized DRAM traffic

    /** Hardware requirements implied by the mapping. */
    double pe_dim_req = 0.0;
    double accum_words_req = 0.0;
    double spad_words_req = 0.0;
    double spad_w_tile_words = 0.0; ///< weight tile at the scratchpad
    double spad_i_tile_words = 0.0; ///< input tile at the scratchpad

    /** Whether the mapping fits the hardware it was evaluated on. */
    bool fits = true;
};

/**
 * Evaluate a concrete integer mapping of `layer` on `hw`.
 *
 * The mapping must be complete for the layer (panics otherwise, since
 * incomplete mappings indicate an upstream bug). `fits` reports
 * capacity/PE violations rather than failing, so searchers can reject.
 */
RefEval referenceEval(const Layer &layer, const Mapping &mapping,
                      const HardwareConfig &hw);

/**
 * Concrete-design latency scorer. Empty means reference-model
 * latency. Fig. 12 passes a learned predictor here so designs are
 * selected by predicted performance.
 */
using LatencyScorer = std::function<double(
        const Layer &, const Mapping &, const HardwareConfig &)>;

/**
 * The one scoring rule every searcher ranks concrete designs by:
 * `referenceEval` with `latency` from `scorer` when one is installed
 * (else the reference latency) and `edp` the EDP that latency
 * implies. Energy and traffic stay the reference model's.
 */
RefEval scoredEval(const Layer &layer, const Mapping &mapping,
                   const HardwareConfig &hw, const LatencyScorer &scorer);

/**
 * referenceEval(layer, mapping, hw).fits without the traffic model: the
 * mapping's PE side, accumulator tile and scratchpad tiles fit `hw`.
 * This is the one fit rule; rejection samplers probe with it.
 */
bool referenceFits(const Layer &layer, const Mapping &mapping,
                   const HardwareConfig &hw);

/**
 * Infer the minimal hardware configuration supporting every
 * layer/mapping pair (Fig. 3: parameter-wise max, then quantization to
 * integer PE side and whole-KiB SRAMs).
 */
HardwareConfig inferMinimalHw(const std::vector<Layer> &layers,
                              const std::vector<Mapping> &mappings);

/**
 * Network-level EDP (Eq 14): energies and latencies are summed over
 * layers (weighted by repeat counts) and the sums multiplied.
 */
struct NetworkEval
{
    double energy_uj = 0.0;
    double latency = 0.0;
    double edp = 0.0;
    bool fits = true;
};

/** Eq 14 over `scoredEval` of every layer (empty `scorer` = reference). */
NetworkEval referenceNetworkEval(const std::vector<Layer> &layers,
                                 const std::vector<Mapping> &mappings,
                                 const HardwareConfig &hw,
                                 const LatencyScorer &scorer = {});

} // namespace dosa

#endif // DOSA_MODEL_REFERENCE_HH

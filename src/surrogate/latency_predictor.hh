/**
 * @file
 * The three Gemmini-RTL latency predictors of Section 6.5: pure
 * analytical, DNN-only, and the DNN-augmented analytical model, with
 * both a concrete (double) prediction path and a differentiable path
 * that embeds the trained MLP inside the DOSA objective.
 *
 * The MLP follows the Mind-Mappings-style architecture referenced by
 * the paper: 7 hidden fully-connected layers and approximately 5.7k
 * parameters (we use width 27 -> 5752 params over 43 input features).
 */

#ifndef DOSA_SURROGATE_LATENCY_PREDICTOR_HH
#define DOSA_SURROGATE_LATENCY_PREDICTOR_HH

#include <memory>
#include <vector>

#include "core/dosa_optimizer.hh"
#include "core/objective.hh"
#include "nn/mlp.hh"
#include "surrogate/dataset.hh"

namespace dosa {

/** Which latency model a predictor implements. */
enum class LatencyModelKind { Analytical, DnnOnly, Combined };

/** Name for reporting ("Analytical", "DNN-Only", "Analytical+DNN"). */
const char *latencyModelName(LatencyModelKind k);

/** Per-feature affine standardization fitted on the training set. */
struct Standardizer
{
    std::vector<double> mean;
    std::vector<double> stdev;

    void fit(const std::vector<std::vector<double>> &rows);

    template <class S>
    std::vector<S>
    apply(std::vector<S> row) const
    {
        for (size_t i = 0; i < row.size(); ++i)
            row[i] = (row[i] - S(mean[i])) / S(stdev[i]);
        return row;
    }
};

/** Trained (or trivial) latency predictor. */
class LatencyPredictor
{
  public:
    /** The identity analytical predictor. */
    static LatencyPredictor analytical();

    /**
     * Train a DNN-only predictor: MLP maps features -> log latency.
     * Returns the trained predictor; `epochs` full passes with Adam.
     */
    static LatencyPredictor trainDnnOnly(const SurrogateDataset &train,
                                         int epochs, uint64_t seed);

    /**
     * Train the DNN-augmented predictor: MLP maps features ->
     * log(rtl / analytical); prediction multiplies the analytical
     * latency by the learned residual (Section 4.7).
     */
    static LatencyPredictor trainCombined(const SurrogateDataset &train,
                                          int epochs, uint64_t seed);

    /** Predicted latency of a concrete design point. */
    double predict(const Layer &layer, const Mapping &mapping,
                   const HardwareConfig &hw) const;

    /** Predictions over a whole dataset. */
    std::vector<double> predictAll(const SurrogateDataset &ds) const;

    LatencyModelKind kind() const { return kind_; }

    /**
     * Point scorer over predict() for DosaConfig::scorer
     * (SearchSpec::scorer). Captures `this`: the predictor must
     * outlive every search the scorer is installed in.
     */
    LatencyScorer scorer() const;

    /**
     * Differentiable prediction on the autodiff tape: analytical
     * latency adjusted (or replaced) by the MLP evaluated on the
     * continuous mapping features.
     */
    ad::Var latencyVar(const Layer &layer,
                       const Factors<ad::Var> &factors,
                       const OrderVec &order,
                       const ad::Var &analytical_latency,
                       const HwScalars<ad::Var> &hw) const;

  private:
    LatencyModelKind kind_ = LatencyModelKind::Analytical;
    std::shared_ptr<Mlp> mlp_;
    Standardizer stdzr_;
};

/** Adapter exposing a LatencyPredictor as a DiffLatencyModel. */
class SurrogateDiffModel : public DiffLatencyModel
{
  public:
    explicit SurrogateDiffModel(const LatencyPredictor &p)
        : predictor_(&p)
    {}

    ad::Var
    latency(const Layer &layer, const Factors<ad::Var> &factors,
            const OrderVec &order, const ad::Var &analytical_latency,
            const HwScalars<ad::Var> &hw) const override
    {
        return predictor_->latencyVar(layer, factors, order,
                analytical_latency, hw);
    }

  private:
    const LatencyPredictor *predictor_;
};

/** MLP layer sizes used by both learned predictors. */
std::vector<int> surrogateMlpSizes();

} // namespace dosa

#endif // DOSA_SURROGATE_LATENCY_PREDICTOR_HH

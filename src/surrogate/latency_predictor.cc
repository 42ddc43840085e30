/**
 * @file
 * The three Gemmini-RTL latency predictors: analytical, DNN-only and DNN-augmented.
 */
#include "surrogate/latency_predictor.hh"

#include <cmath>

#include "model/reference.hh"
#include "search/search_common.hh"
#include "util/logging.hh"

namespace dosa {

const char *
latencyModelName(LatencyModelKind k)
{
    switch (k) {
      case LatencyModelKind::Analytical: return "Analytical";
      case LatencyModelKind::DnnOnly: return "DNN-Only";
      case LatencyModelKind::Combined: return "Analytical+DNN";
    }
    return "?";
}

std::vector<int>
surrogateMlpSizes()
{
    // 7 hidden layers of width 27 over the 43 features: 5752
    // trainable parameters, matching the paper's 5737-parameter
    // Mind-Mappings-style network.
    return {kFeatureSize, 27, 27, 27, 27, 27, 27, 27, 1};
}

void
Standardizer::fit(const std::vector<std::vector<double>> &rows)
{
    if (rows.empty())
        panic("Standardizer::fit: empty input");
    size_t dim = rows[0].size();
    mean.assign(dim, 0.0);
    stdev.assign(dim, 0.0);
    for (const auto &r : rows)
        for (size_t i = 0; i < dim; ++i)
            mean[i] += r[i];
    for (size_t i = 0; i < dim; ++i)
        mean[i] /= static_cast<double>(rows.size());
    for (const auto &r : rows)
        for (size_t i = 0; i < dim; ++i)
            stdev[i] += (r[i] - mean[i]) * (r[i] - mean[i]);
    for (size_t i = 0; i < dim; ++i) {
        stdev[i] = std::sqrt(stdev[i] /
                static_cast<double>(rows.size()));
        if (stdev[i] < 1e-9)
            stdev[i] = 1.0; // constant feature: pass through
    }
}

LatencyPredictor
LatencyPredictor::analytical()
{
    LatencyPredictor p;
    p.kind_ = LatencyModelKind::Analytical;
    return p;
}

namespace {

/** Shared MLP training loop on standardized features. */
std::shared_ptr<Mlp>
trainMlp(const std::vector<std::vector<double>> &features,
         const std::vector<double> &targets, int epochs, uint64_t seed)
{
    auto mlp = std::make_shared<Mlp>(surrogateMlpSizes(), seed);
    double lr = 3e-3;
    for (int e = 0; e < epochs; ++e) {
        // Cosine-free simple decay keeps late epochs stable.
        double cur_lr = lr * (e < epochs / 2 ? 1.0 : 0.3);
        mlp->trainEpoch(features, targets, cur_lr,
                seed + 1000 + static_cast<uint64_t>(e));
    }
    return mlp;
}

} // namespace

LatencyPredictor
LatencyPredictor::trainDnnOnly(const SurrogateDataset &train, int epochs,
                               uint64_t seed)
{
    LatencyPredictor p;
    p.kind_ = LatencyModelKind::DnnOnly;
    p.stdzr_.fit(train.features);
    std::vector<std::vector<double>> x;
    x.reserve(train.size());
    for (const auto &f : train.features)
        x.push_back(p.stdzr_.apply(f));
    std::vector<double> y;
    y.reserve(train.size());
    for (double v : train.rtl)
        y.push_back(std::log(std::max(v, 1.0)));
    p.mlp_ = trainMlp(x, y, epochs, seed);
    return p;
}

LatencyPredictor
LatencyPredictor::trainCombined(const SurrogateDataset &train,
                                int epochs, uint64_t seed)
{
    LatencyPredictor p;
    p.kind_ = LatencyModelKind::Combined;
    p.stdzr_.fit(train.features);
    std::vector<std::vector<double>> x;
    x.reserve(train.size());
    for (const auto &f : train.features)
        x.push_back(p.stdzr_.apply(f));
    std::vector<double> y;
    y.reserve(train.size());
    for (size_t i = 0; i < train.size(); ++i)
        y.push_back(std::log(std::max(train.rtl[i], 1.0) /
                             std::max(train.analytical[i], 1.0)));
    p.mlp_ = trainMlp(x, y, epochs, seed);
    return p;
}

double
LatencyPredictor::predict(const Layer &layer, const Mapping &mapping,
                          const HardwareConfig &hw) const
{
    double analytical_lat = referenceEval(layer, mapping, hw).latency;
    switch (kind_) {
      case LatencyModelKind::Analytical:
        return analytical_lat;
      case LatencyModelKind::DnnOnly: {
        std::vector<double> f = stdzr_.apply(
                encodeFeatures(layer, mapping, hw));
        return std::exp(mlp_->predict(f));
      }
      case LatencyModelKind::Combined: {
        std::vector<double> f = stdzr_.apply(
                encodeFeatures(layer, mapping, hw));
        return analytical_lat * std::exp(mlp_->predict(f));
      }
    }
    return analytical_lat;
}

std::vector<double>
LatencyPredictor::predictAll(const SurrogateDataset &ds) const
{
    std::vector<double> out;
    out.reserve(ds.size());
    for (size_t i = 0; i < ds.size(); ++i)
        out.push_back(predict(ds.layers[i], ds.mappings[i], ds.hws[i]));
    return out;
}

LatencyScorer
LatencyPredictor::scorer() const
{
    return [this](const Layer &layer, const Mapping &m,
                  const HardwareConfig &hw) {
        return predict(layer, m, hw);
    };
}

ad::Var
LatencyPredictor::latencyVar(const Layer &layer,
                             const Factors<ad::Var> &factors,
                             const OrderVec &order,
                             const ad::Var &analytical_latency,
                             const HwScalars<ad::Var> &hw) const
{
    if (kind_ == LatencyModelKind::Analytical)
        return analytical_latency;

    ad::Var pe_dim = sqrt(hw.cpe);
    ad::Var accum_kib = hw.accum_words * ad::Var(4.0 / 1024.0);
    ad::Var spad_kib = hw.spad_words * ad::Var(1.0 / 1024.0);
    std::vector<ad::Var> f = encodeFeaturesT<ad::Var>(layer, factors,
            order, pe_dim, accum_kib, spad_kib);
    f = stdzr_.apply(std::move(f));
    ad::Var pred = mlp_->forwardT<ad::Var>(f);
    if (kind_ == LatencyModelKind::DnnOnly)
        return exp(pred);
    return analytical_latency * exp(pred);
}

} // namespace dosa

/**
 * @file
 * Tests for the area model and area-constrained co-search (the
 * Section 6.5.3 "area as a third objective" extension).
 */

#include <gtest/gtest.h>

#include "api/search_api.hh"
#include "arch/area_model.hh"
#include "autodiff/tape.hh"
#include "autodiff/var.hh"
#include "arch/baselines.hh"
#include "workload/model_zoo.hh"

namespace dosa {
namespace {

TEST(AreaModel, MonotoneInEveryParameter)
{
    HardwareConfig base{16, 32, 128};
    double a0 = configAreaMm2(base);
    EXPECT_GT(configAreaMm2({32, 32, 128}), a0);
    EXPECT_GT(configAreaMm2({16, 64, 128}), a0);
    EXPECT_GT(configAreaMm2({16, 32, 256}), a0);
}

TEST(AreaModel, PlausibleMagnitudes)
{
    // Default Gemmini (256 PEs + 160 KB SRAM) lands near ~1 mm^2 at
    // 40nm; a 128x128 monster with MBs of SRAM is tens of mm^2.
    double small = configAreaMm2(gemminiDefault().config);
    EXPECT_GT(small, 0.5);
    EXPECT_LT(small, 3.0);
    double big = configAreaMm2({128, 1024, 2048});
    EXPECT_GT(big, 40.0);
    EXPECT_GT(big, 10.0 * small);
}

TEST(AreaModel, DifferentiableThroughVar)
{
    ad::Tape tape;
    ad::Var cpe(tape, 256.0);
    ad::Var acc(tape, 8192.0);
    ad::Var spad(tape, 131072.0);
    ad::Var area = AreaModel::areaMm2(cpe, acc, spad);
    EXPECT_NEAR(area.value(),
            configAreaMm2(gemminiDefault().config), 1e-9);
    auto adj = tape.gradient(area.id());
    EXPECT_GT(adj[size_t(cpe.id())], 0.0);
    EXPECT_GT(adj[size_t(acc.id())], 0.0);
    EXPECT_GT(adj[size_t(spad.id())], 0.0);
}

TEST(AreaConstrainedSearch, RespectsBudget)
{
    Network net = bertBase();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 3);
    const double budget = 3.0; // mm^2: rules out huge arrays

    SearchSpec spec;
    spec.algorithm = "dosa";
    spec.workload = layers;
    spec.options.set("start_points", 3)
            .set("steps_per_start", 300)
            .set("round_every", 100);
    spec.mode.max_area_mm2 = budget;
    spec.seed = 5;
    SearchReport r = runSearch(spec);
    ASSERT_LT(r.search.best_edp,
            std::numeric_limits<double>::infinity());
    EXPECT_LE(configAreaMm2(r.search.best_hw), budget);
}

TEST(AreaConstrainedSearch, BudgetTradesOffEdp)
{
    Network net = bertBase();
    std::vector<Layer> layers(net.layers.begin(),
            net.layers.begin() + 3);
    SearchSpec open;
    open.algorithm = "dosa";
    open.workload = layers;
    open.options.set("start_points", 3)
            .set("steps_per_start", 300)
            .set("round_every", 100);
    open.seed = 9;
    SearchSpec tight = open;
    tight.mode.max_area_mm2 = 2.0;

    SearchReport r_open = runSearch(open);
    SearchReport r_tight = runSearch(tight);
    ASSERT_LT(r_tight.search.best_edp,
            std::numeric_limits<double>::infinity());
    // A hard area budget cannot make the best EDP better.
    EXPECT_GE(r_tight.search.best_edp,
            r_open.search.best_edp * 0.999);
    EXPECT_LE(configAreaMm2(r_tight.search.best_hw), 2.0);
}

TEST(AreaConstrainedSearch, UnconstrainedByDefault)
{
    ObjectiveMode mode;
    EXPECT_DOUBLE_EQ(mode.max_area_mm2, 0.0);
}

} // namespace
} // namespace dosa

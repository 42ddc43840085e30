/**
 * @file
 * Ablation study of the optimizer's design choices (not a paper
 * figure — supporting evidence for the reproduction's engineering
 * decisions):
 *
 *  - feasibility projection of the log-space iterates (vs the Eq 18
 *    penalty acting alone),
 *  - greedy restart from the best rounded design after a regression,
 *  - the within-segment learning-rate decay schedule,
 *  - single vs multi start points.
 *
 * Each variant runs the open co-search on ResNet-50 and BERT; lower
 * final EDP is better.
 */

#include <vector>

#include "bench/common.hh"
#include "stats/stats.hh"
#include "workload/model_zoo.hh"

using namespace dosa;

int
main(int argc, char **argv)
{
    bench::Scale scale = bench::parseScale(argc, argv);
    bench::banner("Ablation: DOSA optimizer design choices", scale);
    bench::WallTimer timer;

    const int runs = scale.pick(1, 2, 3);
    const int starts = scale.pick(2, 5, 7);
    const int steps = scale.pick(40, 900, 1490);

    struct Variant
    {
        const char *name;
        bool project;
        bool restart_best;
        double lr;
        double lr_decay;
        int start_points;
    };
    const Variant variants[] = {
        {"full (reference)", true, true, 0.02, 0.3, starts},
        {"no projection", false, true, 0.02, 0.3, starts},
        {"no greedy restart", true, false, 0.02, 0.3, starts},
        {"no lr decay", true, true, 0.02, 1.0, starts},
        {"high lr (0.05)", true, true, 0.05, 0.3, starts},
        {"single start", true, true, 0.02, 0.3, 1},
    };

    TablePrinter table({"workload", "variant", "mean best EDP",
                        "vs full"});
    for (const char *wl : {"resnet50", "bert"}) {
        Network net = networkByName(wl);
        double full_edp = 0.0;
        for (const Variant &v : variants) {
            std::vector<double> bests;
            for (int run = 0; run < runs; ++run) {
                SearchSpec spec;
                spec.algorithm = "dosa";
                spec.workload = net.layers;
                spec.jobs = scale.jobs;
                spec.options.set("start_points", v.start_points)
                        .set("steps_per_start", steps)
                        .set("round_every", 300)
                        .set("lr", v.lr)
                        .set("lr_decay", v.lr_decay)
                        .set("project_feasible", v.project ? 1 : 0)
                        .set("restart_from_best",
                                v.restart_best ? 1 : 0);
                spec.seed = scale.seed + 97 * uint64_t(run);
                bests.push_back(
                        runSearch(spec).search.best_edp);
            }
            double g = geomean(bests);
            if (std::string(v.name) == "full (reference)")
                full_edp = g;
            table.addRow({wl, v.name, fmtSci(g, 3),
                    fmt(g / full_edp, 2) + "x"});
        }
    }
    table.print();
    bench::note(">1x means the ablated variant is worse. Multi-start "
                "and a moderate, decayed learning rate carry the most "
                "weight in open co-search; the feasibility projection "
                "mainly stabilizes single-start and fixed-PE runs.");
    table.writeCsv("bench_ablation.csv");
    bench::perfFooter(scale, timer);
    return 0;
}

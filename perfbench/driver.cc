/**
 * @file
 * The repository benchmark's driver: runs ONE cold repetition of one
 * workload in this fresh process and prints its raw measurements as a
 * single JSON line on stdout. perfbench/run.py spawns it once per
 * repetition (so the EvalCache, the divisor memo and the registries
 * start empty every time, as in every user run) and aggregates.
 *
 *   perfbench_driver --workload NAME --seed N [--setup-only] [--traced]
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   fig7-serial       Fig. 7 at bench_fig7 --quick options, one thread
 *   fig7-parallel     the same cells over a 4-thread pool
 *   dosa-10k          DOSA at the paper's 7 x 1490-step budget,
 *                     spec.jobs = 4, one search at a time, 5 runs
 *                     on each of the four networks
 *   service-loopback  SearchService + TcpServer, 4 closed-loop clients
 *
 * `--setup-only` stops at the first dispatch (run.py samples set-up
 * time this way); `--traced` adds the benchmark's own phase observer,
 * enables the src/obs tracer and, after the workload, runs the
 * per-layer probes (probes.cc). Everything is measured from outside
 * the library: timed public calls, `obs::globalMetrics().snapshot()`
 * counters and `SearchObserver::onPhase` timestamps.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver.hh"

#include "api/search_api.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/search_service.hh"
#include "service/tcp_server.hh"
#include "service/wire.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "workload/workload_registry.hh"

using namespace dosa;
using perfbench::nowS;

namespace {

constexpr int kThreads = 4;

/** JSON number that tolerates the non-finite EDPs of a broken run. */
json::Value
num(double v)
{
    return std::isfinite(v) ? json::Value::number(v)
                            : json::Value::string(std::to_string(v));
}

/** FNV-1a over the bit patterns of every recorded value. */
class Digest
{
  public:
    void
    add(double v)
    {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(v));
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Timestamps every searcher phase of one runSearch call. A phase lasts
 * until the next one begins; time before the driver's "setup" and
 * after its "done" is left unattributed.
 */
class PhaseClock : public SearchObserver
{
  public:
    void
    onPhase(const char *phase) override
    {
        marks_.emplace_back(phase, nowS());
    }

    json::Value
    phases() const
    {
        std::map<std::string, double> sums;
        for (size_t i = 0; i + 1 < marks_.size(); ++i)
            sums[marks_[i].first] +=
                    marks_[i + 1].second - marks_[i].second;
        json::Value out = json::Value::object();
        for (const auto &[name, s] : sums)
            out.set(name, json::Value::number(s));
        return out;
    }

  private:
    std::vector<std::pair<std::string, double>> marks_;
};

/** One searcher run of a cell-sweep workload. */
struct Cell
{
    std::string net;
    SearchSpec spec;
    size_t planned = 0;
};

/** What a cell-sweep workload produced for one cell. */
struct CellOutcome
{
    double latency_s = 0.0;
    SearchReport report;
    json::Value phases = json::Value::object();
};

std::vector<Network>
paperNets()
{
    std::vector<Network> nets;
    for (const char *name : {"unet", "resnet50", "bert", "retinanet"}) {
        const Network *net = Workloads::find(name);
        if (net == nullptr)
            fatal(std::string("workload not registered: ") + name);
        nets.push_back(*net);
    }
    return nets;
}

/** Fig. 7 at bench_fig7 --quick options: (net, run, algorithm) cells. */
std::vector<Cell>
fig7Cells(uint64_t seed)
{
    const int runs = 2, starts = 5, steps = 600, round_every = 300;
    std::vector<Cell> cells;
    for (const Network &net : paperNets())
        for (int run = 0; run < runs; ++run)
            for (const char *algo : {"dosa", "random", "bayesopt"}) {
                Cell c;
                c.net = net.name;
                c.spec.algorithm = algo;
                c.spec.workload = net.layers;
                c.spec.seed = seed + 1000 * uint64_t(run);
                c.spec.budget.max_samples = starts * (steps + 1);
                if (c.spec.algorithm == "dosa")
                    c.spec.options.set("start_points", starts)
                            .set("steps_per_start", steps)
                            .set("round_every", round_every);
                else if (c.spec.algorithm == "random")
                    c.spec.options.set("hw_designs", 5);
                else
                    c.spec.options.set("warmup_samples", 20)
                            .set("total_samples", 80)
                            .set("hw_candidates", 4)
                            .set("map_candidates", 8)
                            .set("max_train_points", 300);
                cells.push_back(std::move(c));
            }
    return cells;
}

/**
 * DOSA alone at the paper's budget, one search at a time: the DOSA
 * column of bench_fig7 --full (5 runs per network, seeded as there).
 */
std::vector<Cell>
dosa10kCells(uint64_t seed)
{
    std::vector<Cell> cells;
    for (const Network &net : paperNets())
        for (int run = 0; run < 5; ++run) {
            Cell c;
            c.net = net.name;
            c.spec.algorithm = "dosa";
            c.spec.workload = net.layers;
            c.spec.seed = seed + 1000 * uint64_t(run);
            c.spec.jobs = kThreads;
            c.spec.options.set("start_points", 7)
                    .set("steps_per_start", 1490)
                    .set("round_every", 500);
            cells.push_back(std::move(c));
        }
    return cells;
}

long
peakRssKb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

json::Value
countersJson(const obs::MetricsSnapshot &snap)
{
    json::Value out = json::Value::object();
    for (const auto &[name, v] : snap.counters)
        out.set(name, json::Value::number(v));
    return out;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    bool setup_only = false;
    bool traced = false;
};

/**
 * fig7-serial / fig7-parallel / dosa-10k: run every cell through
 * runSearch (fanned out over `pool_threads`) and check each one.
 */
json::Value
runCells(const Args &args, double t_main)
{
    const bool fig7 = args.workload != "dosa-10k";
    const int pool_threads =
            args.workload == "fig7-parallel" ? kThreads : 1;

    // Set-up: registries, workload resolution, planned samples, pool.
    std::vector<Cell> cells =
            fig7 ? fig7Cells(args.seed) : dosa10kCells(args.seed);
    for (Cell &c : cells) {
        std::string error;
        if (!validateSpec(c.spec, error))
            fatal(error);
        c.planned = Search::find(c.spec.algorithm)->plannedSamples(c.spec);
    }
    ThreadPool pool(pool_threads);
    const double t_dispatch = nowS();

    json::Value out = json::Value::object();
    out.set("t_main", json::Value::number(t_main));
    out.set("t_dispatch", json::Value::number(t_dispatch));
    if (args.setup_only)
        return out;

    if (args.traced)
        obs::globalTracer().enable();
    std::vector<CellOutcome> outcomes =
            pool.parallelMap(cells.size(), [&](size_t i) {
        CellOutcome o;
        PhaseClock clock;
        const double t0 = nowS();
        o.report = runSearch(cells[i].spec,
                args.traced ? &clock : nullptr);
        o.latency_s = nowS() - t0;
        if (args.traced)
            o.phases = clock.phases();
        return o;
    });
    const double wall_s = nowS() - t_dispatch;
    const long rss_kb = peakRssKb();
    const obs::MetricsSnapshot snap = obs::globalMetrics().snapshot();
    if (args.traced)
        obs::globalTracer().disable();

    Digest digest;
    json::Value ops = json::Value::array();
    for (size_t i = 0; i < cells.size(); ++i) {
        const SearchResult &r = outcomes[i].report.search;
        for (double v : r.trace)
            digest.add(v);
        const bool ok = r.trace.size() == cells[i].planned &&
                !r.trace.empty() && std::isfinite(r.best_edp) &&
                r.best_edp == *std::min_element(r.trace.begin(),
                        r.trace.end());
        json::Value op = json::Value::object();
        op.set("kind", json::Value::string("search"));
        op.set("algo", json::Value::string(cells[i].spec.algorithm));
        op.set("net", json::Value::string(cells[i].net));
        if (cells[i].spec.algorithm == "bayesopt") {
            // Not counted inside the library: every guided sample
            // scores map_candidates mappings per (hardware candidate,
            // layer) with one GP lcb call each.
            const OptionBag &o = cells[i].spec.options;
            const int64_t guided = std::max<int64_t>(0,
                    int64_t(r.trace.size()) -
                            o.getInt("warmup_samples", 0));
            op.set("lcb_calls", json::Value::number(guided *
                    o.getInt("hw_candidates", 0) *
                    o.getInt("map_candidates", 0) *
                    int64_t(cells[i].spec.workload.size())));
        }
        op.set("latency_s", json::Value::number(outcomes[i].latency_s));
        op.set("best_edp", num(r.best_edp));
        op.set("samples", json::Value::number(uint64_t(r.trace.size())));
        op.set("ok", json::Value::boolean(ok));
        if (args.traced)
            op.set("phases", outcomes[i].phases);
        ops.push(std::move(op));
    }
    out.set("wall_s", json::Value::number(wall_s));
    out.set("peak_rss_kb", json::Value::number(int64_t(rss_kb)));
    out.set("digest", json::Value::string(digest.hex()));
    out.set("ops", std::move(ops));
    out.set("counters", countersJson(snap));

    if (args.traced) {
        out.set("trace_dropped", json::Value::number(
                obs::globalTracer().droppedCount()));
        perfbench::ProbeInputs in;
        for (const Network &net : paperNets())
            in.nets.push_back(net.layers);
        in.trace = outcomes.front().report.search.trace;
        in.seed = args.seed;
        out.set("probes", perfbench::runProbes(in));
    }
    return out;
}

/** One client connection's view of the closed loop. */
struct ClientLog
{
    json::Value ops = json::Value::array();
    std::vector<SearchSpec> specs; ///< per search op, in op order
    std::vector<double> best_edp;  ///< per search op (from `done`)
    uint64_t frames = 0;
};

SearchSpec
serviceSpec(uint64_t seed, int conn, int i)
{
    SearchSpec spec;
    spec.algorithm = "mapper";
    // The two-layer golden workload (tests/golden/).
    spec.workload = {Layer::gemm("a", 128, 64, 256),
                     Layer::conv("b", 3, 16, 32, 64)};
    spec.seed = seed * 1000003 + uint64_t(conn) * 1000 + uint64_t(i);
    spec.options.set("samples", 200);
    return spec;
}

/**
 * Closed loop on one connection: each request is sent only after the
 * previous one's terminal frame; every tenth request is `stats`.
 */
ClientLog
runConnection(service::TcpClient &tcp, int conn, uint64_t seed,
              int requests)
{
    ClientLog log;
    std::string line, error;
    for (int i = 0; i < requests; ++i) {
        const bool stats = i % 10 == 9;
        const std::string id = "c" + std::to_string(conn) + "." +
                std::to_string(i);
        SearchSpec spec = serviceSpec(seed, conn, i);
        const double t0 = nowS();
        bool ok = tcp.sendLine(stats
                ? service::encodeStatsRequest(id)
                : service::encodeSearchRequest(id, spec));
        double first_frame = -1.0;
        service::Frame frame;
        bool terminal = false;
        while (ok && !terminal && tcp.receiveLine(line)) {
            if (first_frame < 0.0)
                first_frame = nowS() - t0;
            ++log.frames;
            if (!service::decodeFrame(line, frame, error) ||
                    frame.id != id) {
                ok = false;
                break;
            }
            using K = service::Frame::Kind;
            terminal = frame.kind == K::Done || frame.kind == K::Error ||
                    frame.kind == K::Stats || frame.kind == K::Pong;
        }
        const double latency = nowS() - t0;
        using K = service::Frame::Kind;
        ok = ok && terminal &&
                frame.kind == (stats ? K::Stats : K::Done) &&
                (stats || frame.samples == 200);
        json::Value op = json::Value::object();
        op.set("kind", json::Value::string(stats ? "stats" : "search"));
        op.set("id", json::Value::string(id));
        op.set("latency_s", json::Value::number(latency));
        op.set("first_frame_s", json::Value::number(first_frame));
        op.set("ok", json::Value::boolean(ok));
        if (!stats) {
            op.set("algo", json::Value::string("mapper"));
            op.set("best_edp", num(ok ? frame.best_edp : NAN));
            op.set("samples", json::Value::number(frame.samples));
            log.specs.push_back(std::move(spec));
            log.best_edp.push_back(ok ? frame.best_edp : NAN);
        }
        log.ops.push(std::move(op));
    }
    return log;
}

/** service-loopback: one SearchService behind TcpServer, 4 clients. */
json::Value
runService(const Args &args, double t_main)
{
    // 4 x 56 requests = 204 searches + 20 stats per repetition, so the
    // search p95 has at least ten samples beyond it.
    const int requests_per_conn = 56;

    service::ServiceConfig config;
    config.max_concurrent = kThreads;
    config.max_queue = 4 * kThreads;
    auto svc = std::make_unique<service::SearchService>(config);
    auto server = std::make_unique<service::TcpServer>(*svc, 0);
    std::string error;
    if (!server->start(error))
        fatal("tcp server: " + error);
    std::vector<std::unique_ptr<service::TcpClient>> clients;
    for (int c = 0; c < kThreads; ++c) {
        clients.push_back(std::make_unique<service::TcpClient>());
        if (!clients.back()->connect("127.0.0.1", server->port(), error))
            fatal("tcp client: " + error);
    }
    const double t_dispatch = nowS();

    json::Value out = json::Value::object();
    out.set("t_main", json::Value::number(t_main));
    out.set("t_dispatch", json::Value::number(t_dispatch));
    if (args.setup_only) {
        server->stop();
        svc->shutdown();
        return out;
    }

    if (args.traced)
        obs::globalTracer().enable();
    std::vector<ClientLog> logs(clients.size());
    {
        std::vector<std::thread> threads;
        for (size_t c = 0; c < clients.size(); ++c)
            threads.emplace_back([&, c] {
                logs[c] = runConnection(*clients[c], int(c), args.seed,
                        requests_per_conn);
            });
        for (std::thread &t : threads)
            t.join();
    }
    const double wall_s = nowS() - t_dispatch;
    const long rss_kb = peakRssKb();
    const obs::MetricsSnapshot snap = obs::globalMetrics().snapshot();
    if (args.traced)
        obs::globalTracer().disable();

    // Outside the timed window: the server's own view (one final
    // `stats` frame, and the per-request history) ...
    service::Frame stats;
    std::string line;
    if (!clients[0]->sendLine(service::encodeStatsRequest("final")) ||
            !clients[0]->receiveLine(line) ||
            !service::decodeFrame(line, stats, error) ||
            stats.kind != service::Frame::Kind::Stats)
        fatal("final stats request failed: " + error);
    double run_p50 = 0.0;
    for (const service::EndpointStats &ep : stats.endpoints)
        if (ep.name == "search")
            run_p50 = ep.processing_s.p50;
    const auto &hists = stats.metrics.histograms;
    const auto qw = hists.find("service.search.queue_wait_s");
    std::map<std::string, double> server_s;
    for (const service::RequestRecord &r : svc->history())
        if (r.endpoint == "search")
            server_s[r.id] = r.seconds;

    // ... and every search replayed in-process through runSearch: the
    // streamed best EDP must equal the direct result bitwise.
    std::vector<SearchSpec> specs;
    std::vector<double> streamed;
    for (const ClientLog &log : logs) {
        specs.insert(specs.end(), log.specs.begin(), log.specs.end());
        streamed.insert(streamed.end(), log.best_edp.begin(),
                log.best_edp.end());
    }
    std::vector<char> same;
    {
        ThreadPool pool(kThreads);
        same = pool.parallelMap(specs.size(), [&](size_t i) {
            return char(runSearch(specs[i]).search.best_edp ==
                    streamed[i]);
        });
    }

    Digest digest;
    json::Value ops = json::Value::array();
    uint64_t frames = 0;
    size_t si = 0;
    for (const ClientLog &log : logs) {
        frames += log.frames;
        for (const json::Value &op0 : log.ops.elements()) {
            json::Value op = op0;
            if (op.find("kind")->asString() == "search") {
                digest.add(streamed[si]);
                const std::string &id = op.find("id")->asString();
                const auto it = server_s.find(id);
                op.set("server_run_s", json::Value::number(
                        it == server_s.end() ? -1.0 : it->second));
                op.set("ok", json::Value::boolean(
                        op.find("ok")->asBool() && same[si] != 0 &&
                        it != server_s.end()));
                ++si;
            }
            ops.push(std::move(op));
        }
    }
    for (auto &c : clients)
        c->close();
    server->stop();
    svc->shutdown();

    out.set("wall_s", json::Value::number(wall_s));
    out.set("peak_rss_kb", json::Value::number(int64_t(rss_kb)));
    out.set("digest", json::Value::string(digest.hex()));
    out.set("ops", std::move(ops));
    out.set("counters", countersJson(snap));
    out.set("frames", json::Value::number(frames));
    out.set("server_run_p50_s", json::Value::number(run_p50));
    out.set("server_queue_wait_p50_s", json::Value::number(
            qw == hists.end() ? 0.0 : qw->second.quantile(0.5)));

    if (args.traced) {
        out.set("trace_dropped", json::Value::number(
                obs::globalTracer().droppedCount()));
        perfbench::ProbeInputs in;
        in.nets.push_back(specs.front().workload);
        in.trace = runSearch(specs.front()).search.trace;
        in.seed = args.seed;
        out.set("probes", perfbench::runProbes(in));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const double t_main = nowS();
    Cli cli(argc, argv);
    Args args;
    args.workload = cli.get("workload", "");
    args.seed = static_cast<uint64_t>(cli.getInt("seed", 1));
    args.setup_only = cli.has("setup-only");
    args.traced = cli.has("traced");

    json::Value out;
    if (args.workload == "fig7-serial" ||
            args.workload == "fig7-parallel" ||
            args.workload == "dosa-10k")
        out = runCells(args, t_main);
    else if (args.workload == "service-loopback")
        out = runService(args, t_main);
    else
        fatal("unknown --workload \"" + args.workload + "\"");
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

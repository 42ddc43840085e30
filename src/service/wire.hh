/**
 * @file
 * Wire protocol of the search service: line-delimited canonical JSON
 * in both directions.
 *
 * Clients send one *request* object per line
 * (`{"endpoint":"search","id":...,"spec":{...}}`, plus the inline
 * `stats` and `ping` endpoints); the service streams back *frames* —
 * `phase` / `sample` / `improvement` / `frontier` events mirroring
 * the `SearchObserver` callbacks in trace order, terminated by
 * exactly one `done`, `error`, `pong` or `stats` frame per request.
 * `frontier` frames only appear on multi-objective runs
 * (`spec.mode.pareto` enables a second axis); the terminal `done`
 * frame then also carries the final front in insertion order.
 *
 * Every encoder produces canonical bytes (sorted keys, canonical
 * number tokens, no whitespace, no trailing newline — transports add
 * the line delimiter), so for a fixed spec/seed the whole reply
 * stream is byte-identical across runs, clients and transports: the
 * service-side determinism contract the protocol tests pin.
 *
 * EDP values can legitimately be non-finite (an empty trace's best
 * is +inf) and JSON has no inf/nan tokens, so the frame schema
 * carries such values as the strings "inf" / "-inf" / "nan"; both
 * decoders accept either form.
 *
 * Both decoders are strict (unknown keys rejected, types checked,
 * enum domains enforced) and non-fatal: any malformed line returns
 * false plus a diagnostic — never a crash — which the service
 * answers with a structured `error` frame.
 */

#ifndef DOSA_SERVICE_WIRE_HH
#define DOSA_SERVICE_WIRE_HH

#include <string>
#include <string_view>
#include <vector>

#include "api/observer.hh"
#include "api/search_spec.hh"
#include "api/searcher.hh"
#include "obs/metrics.hh"
#include "service/endpoint_stats.hh"

namespace dosa::service {

/** One decoded client request. */
struct Request
{
    enum class Kind
    {
        Search, ///< run a search, streaming frames ("search")
        Stats,  ///< endpoint statistics snapshot ("stats")
        Ping,   ///< liveness probe ("ping")
    };

    Kind kind = Kind::Ping;
    /** Client-chosen correlation id, echoed on every reply frame. */
    std::string id;
    /** Decoded spec (Kind::Search only). */
    SearchSpec spec;
};

/** Encode a `search` request line for `spec` (canonical bytes). */
std::string encodeSearchRequest(const std::string &id,
                                const SearchSpec &spec);

/** Encode a `stats` request line. */
std::string encodeStatsRequest(const std::string &id);

/** Encode a `ping` request line. */
std::string encodePingRequest(const std::string &id);

/**
 * Strictly decode one request line. On failure returns false and
 * sets `error`; when the line was at least a JSON object with a
 * string `id`, that id is recovered into `out.id` so the error
 * reply can still be correlated (otherwise `out.id` is empty).
 */
[[nodiscard]] bool decodeRequest(std::string_view line, Request &out,
                   std::string &error);

/** One decoded reply frame. */
struct Frame
{
    enum class Kind
    {
        Phase,       ///< searcher lifecycle ("setup", "descent", ...)
        Sample,      ///< one recorded sample, in trace order
        Improvement, ///< sample that strictly improved the best
        Frontier,    ///< sample that entered the Pareto front
        Done,        ///< terminal: search finished, carries the result
        Error,       ///< terminal: typed failure (code + message)
        Pong,        ///< terminal reply to `ping`
        Stats,       ///< terminal reply to `stats`
    };

    /** One frontier point of the `done` frame's summary. */
    struct FrontierPoint
    {
        uint64_t index = 0; ///< trace index of the entering sample
        double edp = 0.0;
        double area_mm2 = 0.0;
        double power_w = 0.0;
        HardwareConfig hw;
    };

    Kind kind = Kind::Error;
    /** Correlation id echoed from the request. */
    std::string id;

    // -- Phase
    std::string phase;

    // -- Sample / Improvement
    SampleEvent sample{};

    // -- Frontier
    FrontierEvent frontier{};

    // -- Done
    double best_edp = 0.0;
    double best_start_edp = 0.0;
    HardwareConfig best_hw;
    HardwareConfig best_start_hw;
    std::vector<Mapping> best_mappings;
    /** Recorded trace length (the paper's sample count axis). */
    uint64_t samples = 0;
    /** Final Pareto front in insertion order (multi-objective runs;
     *  empty otherwise). Mappings stay in-process — the wire carries
     *  each point's metrics and hardware config. */
    std::vector<FrontierPoint> pareto_front;

    // -- Error
    std::string code;
    std::string message;

    // -- Stats
    /** Stats-frame schema version (obs::kTelemetrySchema at encode time). */
    uint64_t schema = 0;
    std::string service_name;
    std::string service_version;
    std::vector<EndpointStats> endpoints;
    /**
     * Retention window of the per-endpoint timing ring: `processing_s`
     * percentiles cover at most this many recent requests.
     */
    uint64_t stats_window = 0;
    /** Process-wide metrics snapshot (obs/metrics.hh) at reply time. */
    obs::MetricsSnapshot metrics;
};

/** Stable error codes of the `error` frame. */
namespace errc {
inline constexpr const char *bad_request = "bad_request";
inline constexpr const char *bad_spec = "bad_spec";
inline constexpr const char *queue_full = "queue_full";
inline constexpr const char *shutdown = "shutdown";
} // namespace errc

std::string phaseFrame(const std::string &id, const char *phase);
std::string sampleFrame(const std::string &id,
                        const SampleEvent &event);
std::string improvementFrame(const std::string &id,
                             const SampleEvent &event);
std::string frontierFrame(const std::string &id,
                          const FrontierEvent &event);
std::string doneFrame(const std::string &id,
                      const SearchReport &report);
std::string errorFrame(const std::string &id, const std::string &code,
                       const std::string &message);
std::string pongFrame(const std::string &id);
/**
 * Encode the `stats` reply frame: endpoint stats plus the retention
 * window they cover, the process-wide metrics snapshot and the
 * `schema` version (obs::kTelemetrySchema).
 */
std::string statsFrame(const std::string &id,
                       const std::string &service_name,
                       const std::string &service_version,
                       const std::vector<EndpointStats> &endpoints,
                       uint64_t stats_window = 0,
                       const obs::MetricsSnapshot &metrics = {});

/**
 * Strictly decode one reply frame (the client half of the protocol;
 * also what the tests use to cross-check the encoders). False plus a
 * diagnostic on any malformed line — never a crash.
 */
bool decodeFrame(std::string_view line, Frame &out,
                 std::string &error);

} // namespace dosa::service

#endif // DOSA_SERVICE_WIRE_HH

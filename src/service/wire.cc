/**
 * @file
 * Wire protocol encoders/decoders. See wire.hh for the framing and
 * determinism contract.
 */
#include "service/wire.hh"

#include <cmath>
#include <limits>

#include "api/spec_json.hh"
#include "obs/trajectory.hh"
#include "util/json.hh"

namespace dosa::service {

namespace {

/**
 * A possibly non-finite EDP as a JSON value: finite values are
 * canonical number tokens, the rest the strings "inf"/"-inf"/"nan"
 * (JSON has no tokens for them).
 */
json::Value
edpValue(double v)
{
    if (std::isnan(v))
        return json::Value::string("nan");
    if (std::isinf(v))
        return json::Value::string(v > 0 ? "inf" : "-inf");
    return json::Value::number(v);
}

/** Required EDP member: a number or one of the non-finite names. */
bool
needEdp(json::ObjectReader &r, const char *key, double &out)
{
    const json::Value *v = r.consume(key);
    if (v == nullptr)
        return r.fail(std::string("missing \"") + key + "\"");
    if (v->isNumber()) {
        out = v->asDouble();
        return true;
    }
    if (v->isString()) {
        const std::string &s = v->asString();
        if (s == "inf") {
            out = std::numeric_limits<double>::infinity();
            return true;
        }
        if (s == "-inf") {
            out = -std::numeric_limits<double>::infinity();
            return true;
        }
        if (s == "nan") {
            out = std::numeric_limits<double>::quiet_NaN();
            return true;
        }
    }
    return r.fail(std::string(key) +
                  ": expected a number or \"inf\"/\"-inf\"/\"nan\"");
}

const json::Value *
need(json::ObjectReader &r, const char *key)
{
    const json::Value *v = r.consume(key);
    if (v == nullptr)
        r.fail(std::string("missing \"") + key + "\"");
    return v;
}

bool
needString(json::ObjectReader &r, const char *key, std::string &out)
{
    const json::Value *v = need(r, key);
    if (v == nullptr)
        return false;
    if (!v->isString())
        return r.fail(std::string(key) + ": expected a string");
    out = v->asString();
    return true;
}

bool
needUint(json::ObjectReader &r, const char *key, uint64_t &out)
{
    const json::Value *v = need(r, key);
    if (v == nullptr)
        return false;
    if (!v->isNumber())
        return r.fail(std::string(key) + ": expected a number");
    out = v->asUint();
    return true;
}

bool
needDouble(json::ObjectReader &r, const char *key, double &out)
{
    const json::Value *v = need(r, key);
    if (v == nullptr)
        return false;
    if (!v->isNumber())
        return r.fail(std::string(key) + ": expected a number");
    out = v->asDouble();
    return true;
}

bool
needBool(json::ObjectReader &r, const char *key, bool &out)
{
    const json::Value *v = need(r, key);
    if (v == nullptr)
        return false;
    if (!v->isBool())
        return r.fail(std::string(key) + ": expected a bool");
    out = v->asBool();
    return true;
}

json::Value
mappingToJson(const Mapping &m)
{
    json::Value v = json::Value::object();
    json::Value order = json::Value::array();
    for (LoopOrder o : m.order)
        order.push(json::Value::number(
                int64_t(static_cast<int>(o))));
    v.set("order", std::move(order));
    v.set("spatial_c", json::Value::number(m.factors.spatial_c));
    v.set("spatial_k", json::Value::number(m.factors.spatial_k));
    json::Value temporal = json::Value::array();
    for (const auto &level : m.factors.temporal) {
        json::Value row = json::Value::array();
        for (int64_t f : level)
            row.push(json::Value::number(f));
        temporal.push(std::move(row));
    }
    v.set("temporal", std::move(temporal));
    return v;
}

bool
mappingFromJson(const json::Value &value, const std::string &path,
                Mapping &out, std::string &error)
{
    json::ObjectReader r(value, path, error);

    if (const json::Value *order = r.consume("order")) {
        if (!order->isArray() ||
            order->elements().size() != size_t(kNumLevels))
            return r.fail("order: expected an array of " +
                          std::to_string(kNumLevels) + " ints");
        for (int i = 0; i < kNumLevels; ++i) {
            const json::Value &o = order->elements()[size_t(i)];
            if (!o.isNumber())
                return r.fail("order: expected ints");
            int64_t code = o.asInt();
            if (code < 0 || code >= kNumOrders)
                return r.fail("order: out-of-range loop order " +
                              std::to_string(code));
            out.order[size_t(i)] = static_cast<LoopOrder>(code);
        }
    } else {
        return r.fail("missing \"order\"");
    }

    if (!r.readInt("spatial_c", out.factors.spatial_c) ||
        !r.readInt("spatial_k", out.factors.spatial_k))
        return false;

    if (const json::Value *temporal = r.consume("temporal")) {
        if (!temporal->isArray() ||
            temporal->elements().size() != size_t(kNumLevels))
            return r.fail("temporal: expected an array of " +
                          std::to_string(kNumLevels) + " rows");
        for (int lvl = 0; lvl < kNumLevels; ++lvl) {
            const json::Value &row =
                    temporal->elements()[size_t(lvl)];
            if (!row.isArray() ||
                row.elements().size() != size_t(kNumDims))
                return r.fail("temporal: expected rows of " +
                              std::to_string(kNumDims) + " ints");
            for (int d = 0; d < kNumDims; ++d) {
                const json::Value &f = row.elements()[size_t(d)];
                if (!f.isNumber())
                    return r.fail("temporal: expected ints");
                out.factors.temporal[size_t(lvl)][size_t(d)] =
                        f.asInt();
            }
        }
    } else {
        return r.fail("missing \"temporal\"");
    }

    return r.finish();
}

json::Value
summaryToJson(const Summary &s)
{
    json::Value v = json::Value::object();
    v.set("n", json::Value::number(uint64_t(s.n)));
    v.set("min", json::Value::number(s.min));
    v.set("max", json::Value::number(s.max));
    v.set("mean", json::Value::number(s.mean));
    v.set("p50", json::Value::number(s.p50));
    v.set("p90", json::Value::number(s.p90));
    v.set("p99", json::Value::number(s.p99));
    return v;
}

bool
summaryFromJson(const json::Value &value, const std::string &path,
                Summary &out, std::string &error)
{
    json::ObjectReader r(value, path, error);
    uint64_t n = 0;
    if (!needUint(r, "n", n))
        return false;
    out.n = size_t(n);
    needDouble(r, "min", out.min);
    needDouble(r, "max", out.max);
    needDouble(r, "mean", out.mean);
    needDouble(r, "p50", out.p50);
    needDouble(r, "p90", out.p90);
    needDouble(r, "p99", out.p99);
    return r.finish();
}

json::Value
endpointToJson(const EndpointStats &ep)
{
    json::Value v = json::Value::object();
    v.set("name", json::Value::string(ep.name));
    v.set("requests", json::Value::number(ep.requests));
    v.set("errors", json::Value::number(ep.errors));
    v.set("last_error", json::Value::string(ep.last_error));
    v.set("processing_s", summaryToJson(ep.processing_s));
    return v;
}

bool
endpointFromJson(const json::Value &value, const std::string &path,
                 EndpointStats &out, std::string &error)
{
    json::ObjectReader r(value, path, error);
    needString(r, "name", out.name);
    needUint(r, "requests", out.requests);
    needUint(r, "errors", out.errors);
    needString(r, "last_error", out.last_error);
    if (const json::Value *summary = r.consume("processing_s")) {
        if (!summaryFromJson(*summary, path + ".processing_s",
                    out.processing_s, error))
            return false; // error carries the nested path
    } else {
        return r.fail("missing \"processing_s\"");
    }
    return r.finish();
}

/** Common frame envelope: {"event":...,"id":...}. */
json::Value
frameEnvelope(const char *event, const std::string &id)
{
    json::Value v = json::Value::object();
    v.set("event", json::Value::string(event));
    v.set("id", json::Value::string(id));
    return v;
}

json::Value
sampleBody(const char *event, const std::string &id,
           const SampleEvent &ev)
{
    json::Value v = frameEnvelope(event, id);
    v.set("index", json::Value::number(uint64_t(ev.index)));
    v.set("edp", edpValue(ev.edp));
    v.set("best_edp", edpValue(ev.best_edp));
    v.set("improved", json::Value::boolean(ev.improved));
    return v;
}

} // namespace

std::string
encodeSearchRequest(const std::string &id, const SearchSpec &spec)
{
    json::Value v = json::Value::object();
    v.set("endpoint", json::Value::string("search"));
    v.set("id", json::Value::string(id));
    v.set("spec", specToJsonValue(spec));
    return v.dump();
}

std::string
encodeStatsRequest(const std::string &id)
{
    json::Value v = json::Value::object();
    v.set("endpoint", json::Value::string("stats"));
    v.set("id", json::Value::string(id));
    return v.dump();
}

std::string
encodePingRequest(const std::string &id)
{
    json::Value v = json::Value::object();
    v.set("endpoint", json::Value::string("ping"));
    v.set("id", json::Value::string(id));
    return v.dump();
}

bool
decodeRequest(std::string_view line, Request &out, std::string &error)
{
    out = Request{};
    json::Value v;
    if (!json::parse(line, v, error))
        return false;
    // Recover the correlation id up front so even a rejected request
    // can be answered on the id the client is waiting on.
    if (const json::Value *id = v.find("id"))
        if (id->isString())
            out.id = id->asString();

    json::ObjectReader r(v, "request", error);
    std::string endpoint;
    if (!needString(r, "endpoint", endpoint))
        return false;
    std::string id;
    if (!needString(r, "id", id))
        return false;
    out.id = id;

    if (endpoint == "search") {
        const json::Value *spec = need(r, "spec");
        if (spec == nullptr)
            return false;
        if (!specFromJsonValue(*spec, out.spec, error))
            return false; // error carries the spec field path
        out.kind = Request::Kind::Search;
    } else if (endpoint == "stats") {
        out.kind = Request::Kind::Stats;
    } else if (endpoint == "ping") {
        out.kind = Request::Kind::Ping;
    } else {
        return r.fail("unknown endpoint \"" + endpoint + "\"");
    }
    return r.finish();
}

std::string
phaseFrame(const std::string &id, const char *phase)
{
    json::Value v = frameEnvelope("phase", id);
    v.set("phase", json::Value::string(phase));
    return v.dump();
}

std::string
sampleFrame(const std::string &id, const SampleEvent &event)
{
    return sampleBody("sample", id, event).dump();
}

std::string
improvementFrame(const std::string &id, const SampleEvent &event)
{
    return sampleBody("improvement", id, event).dump();
}

std::string
frontierFrame(const std::string &id, const FrontierEvent &event)
{
    json::Value v = frameEnvelope("frontier", id);
    v.set("index", json::Value::number(uint64_t(event.index)));
    v.set("edp", edpValue(event.edp));
    v.set("area_mm2", json::Value::number(event.area_mm2));
    v.set("power_w", json::Value::number(event.power_w));
    v.set("front_size",
            json::Value::number(uint64_t(event.front_size)));
    return v.dump();
}

std::string
doneFrame(const std::string &id, const SearchReport &report)
{
    json::Value v = frameEnvelope("done", id);
    v.set("best_edp", edpValue(report.search.best_edp));
    v.set("best_hw", hwToJson(report.search.best_hw));
    json::Value mappings = json::Value::array();
    for (const Mapping &m : report.search.best_mappings)
        mappings.push(mappingToJson(m));
    v.set("best_mappings", std::move(mappings));
    v.set("best_start_edp", edpValue(report.best_start_edp));
    v.set("best_start_hw", hwToJson(report.best_start_hw));
    v.set("samples", json::Value::number(
            uint64_t(report.search.trace.size())));
    json::Value front = json::Value::array();
    for (const ParetoPoint &p : report.search.frontier.points()) {
        json::Value point = json::Value::object();
        point.set("index",
                json::Value::number(uint64_t(p.sample_index)));
        point.set("edp", edpValue(p.edp));
        point.set("area_mm2", json::Value::number(p.area_mm2));
        point.set("power_w", json::Value::number(p.power_w));
        point.set("hw", hwToJson(p.hw));
        front.push(std::move(point));
    }
    v.set("frontier", std::move(front));
    return v.dump();
}

std::string
errorFrame(const std::string &id, const std::string &code,
           const std::string &message)
{
    json::Value v = frameEnvelope("error", id);
    v.set("code", json::Value::string(code));
    v.set("message", json::Value::string(message));
    return v.dump();
}

std::string
pongFrame(const std::string &id)
{
    return frameEnvelope("pong", id).dump();
}

std::string
statsFrame(const std::string &id, const std::string &service_name,
           const std::string &service_version,
           const std::vector<EndpointStats> &endpoints,
           uint64_t stats_window, const obs::MetricsSnapshot &metrics)
{
    json::Value v = frameEnvelope("stats", id);
    v.set("schema", json::Value::number(obs::kTelemetrySchema));
    v.set("name", json::Value::string(service_name));
    v.set("version", json::Value::string(service_version));
    json::Value eps = json::Value::array();
    for (const EndpointStats &ep : endpoints)
        eps.push(endpointToJson(ep));
    v.set("endpoints", std::move(eps));
    v.set("window", json::Value::number(stats_window));
    v.set("metrics", metrics.toJson());
    return v.dump();
}

bool
decodeFrame(std::string_view line, Frame &out, std::string &error)
{
    out = Frame{};
    json::Value v;
    if (!json::parse(line, v, error))
        return false;

    json::ObjectReader r(v, "frame", error);
    std::string event;
    if (!needString(r, "event", event))
        return false;
    if (!needString(r, "id", out.id))
        return false;

    if (event == "phase") {
        out.kind = Frame::Kind::Phase;
        needString(r, "phase", out.phase);
    } else if (event == "sample" || event == "improvement") {
        out.kind = event == "sample" ? Frame::Kind::Sample
                                     : Frame::Kind::Improvement;
        uint64_t index = 0;
        needUint(r, "index", index);
        out.sample.index = size_t(index);
        needEdp(r, "edp", out.sample.edp);
        needEdp(r, "best_edp", out.sample.best_edp);
        needBool(r, "improved", out.sample.improved);
    } else if (event == "frontier") {
        out.kind = Frame::Kind::Frontier;
        uint64_t index = 0;
        needUint(r, "index", index);
        out.frontier.index = size_t(index);
        needEdp(r, "edp", out.frontier.edp);
        needDouble(r, "area_mm2", out.frontier.area_mm2);
        needDouble(r, "power_w", out.frontier.power_w);
        uint64_t front_size = 0;
        needUint(r, "front_size", front_size);
        out.frontier.front_size = size_t(front_size);
    } else if (event == "done") {
        out.kind = Frame::Kind::Done;
        needEdp(r, "best_edp", out.best_edp);
        needEdp(r, "best_start_edp", out.best_start_edp);
        needUint(r, "samples", out.samples);
        if (const json::Value *hw = r.consume("best_hw")) {
            if (!hwFromJson(*hw, "frame.best_hw", out.best_hw,
                        error))
                return false;
        } else {
            return r.fail("missing \"best_hw\"");
        }
        if (const json::Value *hw = r.consume("best_start_hw")) {
            if (!hwFromJson(*hw, "frame.best_start_hw",
                        out.best_start_hw, error))
                return false;
        } else {
            return r.fail("missing \"best_start_hw\"");
        }
        if (const json::Value *maps = r.consume("best_mappings")) {
            if (!maps->isArray())
                return r.fail("best_mappings: expected an array");
            const auto &elems = maps->elements();
            out.best_mappings.resize(elems.size());
            for (size_t i = 0; i < elems.size(); ++i)
                if (!mappingFromJson(elems[i],
                            "frame.best_mappings[" +
                                    std::to_string(i) + "]",
                            out.best_mappings[i], error))
                    return false;
        } else {
            return r.fail("missing \"best_mappings\"");
        }
        if (const json::Value *front = r.consume("frontier")) {
            if (!front->isArray())
                return r.fail("frontier: expected an array");
            const auto &elems = front->elements();
            out.pareto_front.resize(elems.size());
            for (size_t i = 0; i < elems.size(); ++i) {
                const std::string path = "frame.frontier[" +
                        std::to_string(i) + "]";
                json::ObjectReader p(elems[i], path, error);
                Frame::FrontierPoint &pt = out.pareto_front[i];
                needUint(p, "index", pt.index);
                needEdp(p, "edp", pt.edp);
                needDouble(p, "area_mm2", pt.area_mm2);
                needDouble(p, "power_w", pt.power_w);
                if (const json::Value *hw = p.consume("hw")) {
                    if (!hwFromJson(*hw, path + ".hw", pt.hw, error))
                        return false;
                } else {
                    return p.fail("missing \"hw\"");
                }
                if (!p.finish())
                    return false;
            }
        } else {
            return r.fail("missing \"frontier\"");
        }
    } else if (event == "error") {
        out.kind = Frame::Kind::Error;
        needString(r, "code", out.code);
        needString(r, "message", out.message);
    } else if (event == "pong") {
        out.kind = Frame::Kind::Pong;
    } else if (event == "stats") {
        out.kind = Frame::Kind::Stats;
        needUint(r, "schema", out.schema);
        needString(r, "name", out.service_name);
        needString(r, "version", out.service_version);
        needUint(r, "window", out.stats_window);
        if (const json::Value *metrics = r.consume("metrics")) {
            if (!obs::MetricsSnapshot::fromJson(*metrics,
                        "frame.metrics", out.metrics, error))
                return false;
        } else {
            return r.fail("missing \"metrics\"");
        }
        if (const json::Value *eps = r.consume("endpoints")) {
            if (!eps->isArray())
                return r.fail("endpoints: expected an array");
            const auto &elems = eps->elements();
            out.endpoints.resize(elems.size());
            for (size_t i = 0; i < elems.size(); ++i)
                if (!endpointFromJson(elems[i],
                            "frame.endpoints[" + std::to_string(i) +
                                    "]",
                            out.endpoints[i], error))
                    return false;
        } else {
            return r.fail("missing \"endpoints\"");
        }
    } else {
        return r.fail("unknown event \"" + event + "\"");
    }
    return r.finish();
}

} // namespace dosa::service

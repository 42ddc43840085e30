/**
 * @file
 * SearchSpec <-> canonical JSON. See spec_json.hh for the encoding
 * contract (total, canonical, strict non-fatal decode).
 */
#include "api/spec_json.hh"

#include <limits>

#include "util/logging.hh"

namespace dosa {

namespace {

/** Read an integer member into an `int`; a value outside it fails. */
bool
readNarrowInt(json::ObjectReader &r, const char *key, int &out)
{
    int64_t v = out;
    if (!r.readInt(key, v))
        return false;
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
        return r.fail(std::string(key) + ": " + std::to_string(v) +
                      " is outside the range of int");
    out = static_cast<int>(v);
    return true;
}

json::Value
layerToJson(const Layer &layer)
{
    json::Value v = json::Value::object();
    v.set("name", json::Value::string(layer.name));
    v.set("r", json::Value::number(layer.r));
    v.set("s", json::Value::number(layer.s));
    v.set("p", json::Value::number(layer.p));
    v.set("q", json::Value::number(layer.q));
    v.set("c", json::Value::number(layer.c));
    v.set("k", json::Value::number(layer.k));
    v.set("n", json::Value::number(layer.n));
    v.set("stride", json::Value::number(layer.stride));
    v.set("count", json::Value::number(layer.count));
    return v;
}

bool
layerFromJson(const json::Value &value, const std::string &path,
              Layer &out, std::string &error)
{
    json::ObjectReader r(value, path, error);
    r.readString("name", out.name);
    r.readInt("r", out.r);
    r.readInt("s", out.s);
    r.readInt("p", out.p);
    r.readInt("q", out.q);
    r.readInt("c", out.c);
    r.readInt("k", out.k);
    r.readInt("n", out.n);
    r.readInt("stride", out.stride);
    r.readInt("count", out.count);
    return r.finish();
}

json::Value
paretoAxisToJson(const ParetoAxis &axis)
{
    json::Value v = json::Value::object();
    v.set("enabled", json::Value::boolean(axis.enabled));
    v.set("weight", json::Value::number(axis.weight));
    return v;
}

bool
paretoAxisFromJson(const json::Value &value, const std::string &path,
                   ParetoAxis &out, std::string &error)
{
    json::ObjectReader r(value, path, error);
    r.readBool("enabled", out.enabled);
    r.readDouble("weight", out.weight);
    return r.finish();
}

} // namespace

json::Value
hwToJson(const HardwareConfig &hw)
{
    json::Value v = json::Value::object();
    v.set("pe_dim", json::Value::number(hw.pe_dim));
    v.set("accum_kib", json::Value::number(hw.accum_kib));
    v.set("spad_kib", json::Value::number(hw.spad_kib));
    return v;
}

bool
hwFromJson(const json::Value &value, const std::string &path,
           HardwareConfig &out, std::string &error)
{
    json::ObjectReader r(value, path, error);
    r.readInt("pe_dim", out.pe_dim);
    r.readInt("accum_kib", out.accum_kib);
    r.readInt("spad_kib", out.spad_kib);
    return r.finish();
}

json::Value
specToJsonValue(const SearchSpec &spec)
{
    if (spec.scorer)
        panic("specToJson: spec.scorer is process-local and cannot "
              "be serialized");
    if (spec.mode.latency_model != nullptr)
        panic("specToJson: spec.mode.latency_model is process-local "
              "and cannot be serialized");

    json::Value v = json::Value::object();
    v.set("algorithm", json::Value::string(spec.algorithm));

    json::Value workload = json::Value::array();
    for (const Layer &layer : spec.workload)
        workload.push(layerToJson(layer));
    v.set("workload", std::move(workload));
    v.set("workload_name", json::Value::string(spec.workload_name));

    json::Value mode = json::Value::object();
    mode.set("fix_pe", json::Value::boolean(spec.mode.fix_pe));
    mode.set("pe_dim", json::Value::number(spec.mode.pe_dim));
    mode.set("penalty_weight",
            json::Value::number(spec.mode.penalty_weight));
    mode.set("max_area_mm2",
            json::Value::number(spec.mode.max_area_mm2));
    json::Value weights = json::Value::array();
    for (double w : spec.mode.layer_weights)
        weights.push(json::Value::number(w));
    mode.set("layer_weights", std::move(weights));
    json::Value pareto = json::Value::object();
    pareto.set("edp", paretoAxisToJson(spec.mode.pareto.edp));
    pareto.set("area", paretoAxisToJson(spec.mode.pareto.area));
    pareto.set("power", paretoAxisToJson(spec.mode.pareto.power));
    mode.set("pareto", std::move(pareto));
    v.set("mode", std::move(mode));

    json::Value budget = json::Value::object();
    budget.set("max_samples",
            json::Value::number(int64_t(spec.budget.max_samples)));
    // An infinite deadline (a wire 1e400 decodes to one) never
    // fires, exactly like the documented "no deadline" 0; JSON has
    // no token for it. NaN still panics: validateSpec rejects it.
    const double deadline = spec.budget.deadline_s;
    budget.set("deadline_s", json::Value::number(
            deadline == std::numeric_limits<double>::infinity()
                    ? 0.0
                    : deadline));
    v.set("budget", std::move(budget));

    v.set("seed", json::Value::number(spec.seed));
    v.set("jobs", json::Value::number(int64_t(spec.jobs)));
    v.set("fixed_hw", hwToJson(spec.fixed_hw));

    json::Value options = json::Value::object();
    for (const std::string &key : spec.options.keys())
        options.set(key,
                json::Value::number(spec.options.get(key, 0.0)));
    v.set("options", std::move(options));
    return v;
}

std::string
specToJson(const SearchSpec &spec)
{
    return specToJsonValue(spec).dump();
}

bool
specFromJsonValue(const json::Value &value, SearchSpec &out,
                  std::string &error)
{
    out = SearchSpec{};
    json::ObjectReader r(value, "spec", error);
    r.readString("algorithm", out.algorithm);

    if (const json::Value *workload = r.consume("workload")) {
        if (!workload->isArray())
            return r.fail("workload: expected an array");
        const auto &elems = workload->elements();
        out.workload.resize(elems.size());
        for (size_t i = 0; i < elems.size(); ++i)
            if (!layerFromJson(elems[i],
                        "spec.workload[" + std::to_string(i) + "]",
                        out.workload[i], error))
                return false; // error carries the nested path
    }
    r.readString("workload_name", out.workload_name);

    if (const json::Value *mode = r.consume("mode")) {
        json::ObjectReader m(*mode, "spec.mode", error);
        m.readBool("fix_pe", out.mode.fix_pe);
        m.readInt("pe_dim", out.mode.pe_dim);
        m.readDouble("penalty_weight", out.mode.penalty_weight);
        m.readDouble("max_area_mm2", out.mode.max_area_mm2);
        if (const json::Value *weights = m.consume("layer_weights")) {
            if (!weights->isArray())
                return m.fail("layer_weights: expected an array");
            for (const json::Value &w : weights->elements()) {
                if (!w.isNumber())
                    return m.fail("layer_weights: expected numbers");
                out.mode.layer_weights.push_back(w.asDouble());
            }
        }
        if (const json::Value *pareto = m.consume("pareto")) {
            json::ObjectReader p(*pareto, "spec.mode.pareto", error);
            if (const json::Value *axis = p.consume("edp"))
                if (!paretoAxisFromJson(*axis,
                            "spec.mode.pareto.edp",
                            out.mode.pareto.edp, error))
                    return false;
            if (const json::Value *axis = p.consume("area"))
                if (!paretoAxisFromJson(*axis,
                            "spec.mode.pareto.area",
                            out.mode.pareto.area, error))
                    return false;
            if (const json::Value *axis = p.consume("power"))
                if (!paretoAxisFromJson(*axis,
                            "spec.mode.pareto.power",
                            out.mode.pareto.power, error))
                    return false;
            if (!p.finish())
                return false;
        }
        if (!m.finish())
            return false;
    }

    if (const json::Value *budget = r.consume("budget")) {
        json::ObjectReader b(*budget, "spec.budget", error);
        readNarrowInt(b, "max_samples", out.budget.max_samples);
        b.readDouble("deadline_s", out.budget.deadline_s);
        if (!b.finish())
            return false;
    }

    r.readUint("seed", out.seed);
    readNarrowInt(r, "jobs", out.jobs);

    if (const json::Value *hw = r.consume("fixed_hw"))
        if (!hwFromJson(*hw, "spec.fixed_hw", out.fixed_hw, error))
            return false; // error carries the nested path

    if (const json::Value *options = r.consume("options")) {
        if (!options->isObject())
            return r.fail("options: expected an object");
        for (const auto &[key, member] : options->members()) {
            if (!member.isNumber())
                return r.fail("options." + key +
                              ": expected a number");
            out.options.set(key, member.asDouble());
        }
    }
    return r.finish();
}

bool
specFromJson(std::string_view text, SearchSpec &out,
             std::string &error)
{
    json::Value value;
    if (!json::parse(text, value, error))
        return false;
    return specFromJsonValue(value, out, error);
}

SearchSpec
mustSpecFromJson(std::string_view text)
{
    SearchSpec spec;
    std::string error;
    if (!specFromJson(text, spec, error))
        fatal("mustSpecFromJson: " + error);
    return spec;
}

} // namespace dosa

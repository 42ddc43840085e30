/**
 * @file
 * Canonical JSON serialization of `SearchSpec` — the encoding the
 * search service's wire protocol carries specs in, usable standalone
 * for config files and stored experiments.
 *
 * The encoding is total and canonical: every spec field is always
 * emitted (members in sorted key order, canonical number tokens), so
 * encode(decode(encode(s))) is bitwise-stable and two equal specs
 * always serialize to the same bytes. Two fields cannot travel by
 * value and are therefore rejected by the encoder: `spec.scorer` and
 * `spec.mode.latency_model` are process-local callbacks/objects —
 * remote backends install them server-side instead.
 *
 * The decoder is strict and non-fatal: unknown keys, type mismatches
 * and malformed JSON produce `false` plus a path diagnostic (never a
 * crash), which the service turns into structured `error` replies.
 *
 * Workloads travel either inline (`"workload"`, the full layer list)
 * or by registry name (`"workload_name"`, resolved against the
 * `Workloads` registry on the serving side at `runSearch` time) — a
 * client can request `"workload_name": "llm_decode_7b"` without
 * knowing its layers. Name resolution is deliberately not part of
 * decoding: the decoder stays structural, `validateSpec` reports an
 * unknown name against the *local* registry.
 * `mustSpecFromJson` is the parse-or-die wrapper for trusted
 * in-process text (checked-in configs, test fixtures) — fatal by
 * contract on any parse error, so a bad fixture cannot silently run
 * a default spec.
 */

#ifndef DOSA_API_SPEC_JSON_HH
#define DOSA_API_SPEC_JSON_HH

#include <string>
#include <string_view>

#include "api/search_spec.hh"
#include "util/json.hh"

namespace dosa {

/** Encode `hw` as {"accum_kib", "pe_dim", "spad_kib"}. */
json::Value hwToJson(const HardwareConfig &hw);

/**
 * Strictly decode a `hwToJson` object into `out`; false + diagnostic
 * (rooted at `path`) on unknown keys or type mismatches.
 */
[[nodiscard]] bool hwFromJson(const json::Value &value,
                              const std::string &path, HardwareConfig &out,
                              std::string &error);

/**
 * Encode `spec` as a canonical JSON value. Panics when the spec
 * carries a scorer or a differentiable latency model (process-local,
 * not serializable).
 */
json::Value specToJsonValue(const SearchSpec &spec);

/** `specToJsonValue(spec).dump()`: the canonical one-line form. */
std::string specToJson(const SearchSpec &spec);

/**
 * Strictly decode a spec from a parsed JSON value. Returns false and
 * sets `error` (with a field path) on unknown keys, type mismatches
 * or out-of-domain enum strings. Structural only: use `validateSpec`
 * (search_api.hh) for the semantic checks a decoded spec still needs
 * before running.
 */
[[nodiscard]] bool specFromJsonValue(const json::Value &value, SearchSpec &out,
                       std::string &error);

/** Parse `text` then decode; false + diagnostic on either failure. */
[[nodiscard]] bool specFromJson(std::string_view text, SearchSpec &out,
                  std::string &error);

/**
 * Parse-or-die decode for trusted in-process spec text; fatal (exit
 * 1) with the decoder's diagnostic on any error. Never use on bytes
 * that crossed a socket — the wire path reports structured errors
 * through the non-fatal decoder instead.
 */
SearchSpec mustSpecFromJson(std::string_view text);

} // namespace dosa

#endif // DOSA_API_SPEC_JSON_HH

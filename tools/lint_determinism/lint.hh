/**
 * @file
 * The house determinism linter: a small static scanner that keeps
 * the reproducibility contracts (ROADMAP "serial == parallel,
 * bitwise"; canonical JSON bytes) enforceable at CI time instead of
 * by code review.
 *
 * Three tree rules plus two meta rules:
 *
 * - `raw-rng` — bans `rand()` / `srand()` / `std::random_device` /
 *   `*rand48` and the standard engines (`mt19937`, `mt19937_64`,
 *   `minstd_rand0`, `minstd_rand`, `ranlux*`, `knuth_b`,
 *   `default_random_engine`) everywhere except the house Rng
 *   (`src/util/rng.hh`). Every random stream in the system must flow
 *   from a spec seed through `Rng::stream`, or serial==parallel
 *   breaks silently.
 * - `wall-clock` — bans wall/steady clock reads (`*_clock::now`,
 *   `time()`, `clock_gettime`, `gettimeofday`) and `using`/`typedef`
 *   aliases of `system_clock`, `steady_clock` and
 *   `high_resolution_clock` (whose `Alias::now()` the read pattern
 *   cannot see) outside the timing seams that own them: `src/obs/`
 *   (tracer timestamps, metric durations), `src/service/` (endpoint
 *   timings), and `bench/` (self-timing harnesses). A clock read on
 *   a search path is a nondeterminism bug by construction.
 * - `unordered-iter` — flags `std::unordered_{map,set,...}` in
 *   `src/search/` and `src/core/`: result-path code must not depend
 *   on hash-iteration order, which varies across libstdc++ versions
 *   and platforms. Use `std::map`/`std::set`, or sort before use.
 *
 * Suppression is explicit and audited: `// LINT-ALLOW(rule): why`
 * on the offending line or the line directly above silences exactly
 * that rule there. The meta rules keep the allows honest:
 *
 * - `bad-allow` — a LINT-ALLOW with an unknown rule name or an
 *   empty justification.
 * - `unused-allow` — a LINT-ALLOW that suppressed nothing (stale
 *   after the code it excused was fixed or moved).
 *
 * Comments and string/char literals are stripped before the rule
 * patterns run, so prose about `rand()` never trips the scanner.
 * The scan is pure and ordered (files sorted, rules in table
 * order), so its own output is deterministic too.
 */

#ifndef DOSA_TOOLS_LINT_DETERMINISM_LINT_HH
#define DOSA_TOOLS_LINT_DETERMINISM_LINT_HH

#include <string>
#include <vector>

namespace dosa::lint {

/** One rule violation (or meta finding) at a file:line. */
struct Finding
{
    std::string file; ///< path as given (tree scans: relative to root)
    int line = 0;     ///< 1-based
    std::string rule; ///< rule slug, e.g. "raw-rng"
    std::string message;
};

/** The rule slugs, in report order; meta rules last. */
std::vector<std::string> ruleNames();

/**
 * Replace comments and string/char literals in C++ source with
 * spaces, preserving line structure (newlines survive, so line
 * numbers in the sanitized text match the original). Handles `//`,
 * `/ * * /`, escapes, and raw string literals. Exposed for tests.
 */
std::string stripCommentsAndStrings(const std::string &source);

/**
 * Lint one file's content as if it lived at `path` (relative to the
 * repo root — rule applicability keys off the path prefix). Returns
 * findings in line order.
 */
std::vector<Finding> lintFile(const std::string &path,
                              const std::string &content);

/**
 * Walk `subdirs` (or single files) under `root`, lint every
 * `.cc`/`.hh` file, and return all findings sorted by (file, line).
 * False on a filesystem error (missing subdir, unreadable file),
 * with a diagnostic in `error`.
 */
bool lintTree(const std::string &root,
              const std::vector<std::string> &subdirs,
              std::vector<Finding> &findings, std::string &error);

/** "file:line: [rule] message" — the one-line report form. */
std::string formatFinding(const Finding &finding);

} // namespace dosa::lint

#endif // DOSA_TOOLS_LINT_DETERMINISM_LINT_HH

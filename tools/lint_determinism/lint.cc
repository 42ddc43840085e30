/**
 * @file
 * Determinism linter implementation: source sanitizer, rule table,
 * LINT-ALLOW bookkeeping and the tree walker.
 */

#include "lint_determinism/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace dosa::lint {

namespace {

/** Does `path` (with '/' separators) start with directory `prefix`? */
bool
underDir(const std::string &path, const std::string &prefix)
{
    return path.size() > prefix.size() &&
           path.compare(0, prefix.size(), prefix) == 0;
}

/** One tree rule: a pattern plus a path-applicability predicate. */
struct Rule
{
    const char *name;
    const char *pattern;
    const char *message;
    bool (*applies)(const std::string &path);
};

/**
 * The rule table. Order is report order; patterns run against
 * sanitized lines (no comments, no literals). Keep the patterns in
 * sync with the file comment in lint.hh and the docs table.
 */
const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> table = {
        {"raw-rng",
         R"(\b(rand|srand)\s*\(|\brandom_device\b|\b[dlm]rand48\b)"
         R"(|\b(mt19937(_64)?|minstd_rand0?|ranlux\w*|knuth_b)\b)"
         R"(|\bdefault_random_engine\b)",
         "raw RNG outside the house Rng (src/util/rng.hh); seed a "
         "deterministic stream via Rng::stream instead",
         [](const std::string &path) {
             // The one home where engine plumbing is legitimate.
             return !underDir(path, "src/util/rng");
         }},
        {"wall-clock",
         R"((system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b)"
         R"(|\bclock_gettime\b|\bgettimeofday\b)"
         R"(|\btime\s*\(\s*(nullptr|NULL|0)?\s*\))"
         // An alias hides the clock from the ::now pattern above.
         R"(|\busing\s+\w+\s*=\s*[\w:\s]*\b)"
         R"((system_clock|steady_clock|high_resolution_clock)\s*;)"
         R"(|\btypedef\s+[\w:\s]*\b)"
         R"((system_clock|steady_clock|high_resolution_clock)\s+\w+\s*;)",
         "wall-clock read outside the timing seams (src/obs, "
         "src/service, bench); clocks on a search path break "
         "serial==parallel determinism",
         [](const std::string &path) {
             return !underDir(path, "src/obs/") &&
                    !underDir(path, "src/service/") &&
                    !underDir(path, "bench/");
         }},
        {"unordered-iter",
         R"(\bunordered_(map|set|multimap|multiset)\b)",
         "unordered container in a result path (hash-iteration order "
         "varies across platforms); use std::map/std::set or sort "
         "before iterating",
         [](const std::string &path) {
             return underDir(path, "src/search/") ||
                    underDir(path, "src/core/");
         }},
    };
    return table;
}

/** A parsed `// LINT-ALLOW(rule): why` comment. */
struct Allow
{
    int line = 0;
    std::string rule;
    std::string why;
    bool used = false;
};

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string::size_type pos = 0;
    while (pos <= text.size()) {
        std::string::size_type nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            if (pos < text.size())
                lines.push_back(text.substr(pos));
            break;
        }
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

} // namespace

std::vector<std::string>
ruleNames()
{
    std::vector<std::string> names;
    for (const Rule &rule : rules())
        names.push_back(rule.name);
    names.push_back("bad-allow");
    names.push_back("unused-allow");
    return names;
}

namespace {

/**
 * The shared sanitizer: blanks string/char literals always, and
 * comments only when `strip_comments`. Allow parsing runs with
 * comments kept (allows live in comments) but strings blanked, so a
 * string literal that *mentions* `// LINT-ALLOW(...)` — the linter's
 * own tests do — is never mistaken for a real allow.
 */
std::string
sanitize(const std::string &source, bool strip_comments)
{
    std::string out = source;
    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    State state = State::Code;
    std::string raw_end; // ")delim\"" terminator of the raw literal
    size_t i = 0;
    const size_t n = source.size();
    auto blank = [&](size_t at) {
        if (out[at] != '\n')
            out[at] = ' ';
    };
    while (i < n) {
        char c = source[i];
        char next = i + 1 < n ? source[i + 1] : '\0';
        switch (state) {
        case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                if (strip_comments) {
                    blank(i);
                    blank(i + 1);
                }
                i += 2;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                if (strip_comments) {
                    blank(i);
                    blank(i + 1);
                }
                i += 2;
            } else if (c == '"' &&
                       (i == 0 || source[i - 1] != 'R' ||
                        (i >= 2 && (std::isalnum(static_cast<unsigned char>(
                                            source[i - 2])) ||
                                    source[i - 2] == '_')))) {
                // A plain string: the quote keeps its place so the
                // structure stays visible; the body is blanked.
                state = State::String;
                ++i;
            } else if (c == '"') {
                // R"delim( ... )delim": find the opening paren.
                size_t open = source.find('(', i + 1);
                if (open == std::string::npos) {
                    ++i; // malformed; treat as plain quote
                    state = State::String;
                    break;
                }
                raw_end = ")" + source.substr(i + 1, open - i - 1) + "\"";
                for (size_t j = i; j <= open; ++j)
                    blank(j);
                i = open + 1;
                state = State::RawString;
            } else if (c == '\'' &&
                       (i == 0 ||
                        (!std::isalnum(static_cast<unsigned char>(
                                 source[i - 1])) &&
                         source[i - 1] != '_'))) {
                // A char literal (the guard skips digit separators
                // like 1'000'000).
                state = State::Char;
                ++i;
            } else {
                ++i;
            }
            break;
        case State::LineComment:
            if (c == '\n')
                state = State::Code;
            else if (strip_comments)
                blank(i);
            ++i;
            break;
        case State::BlockComment:
            if (c == '*' && next == '/') {
                if (strip_comments) {
                    blank(i);
                    blank(i + 1);
                }
                i += 2;
                state = State::Code;
            } else {
                if (strip_comments)
                    blank(i);
                ++i;
            }
            break;
        case State::String:
            if (c == '\\' && i + 1 < n) {
                blank(i);
                blank(i + 1);
                i += 2;
            } else if (c == '"') {
                state = State::Code;
                ++i;
            } else {
                blank(i);
                ++i;
            }
            break;
        case State::Char:
            if (c == '\\' && i + 1 < n) {
                blank(i);
                blank(i + 1);
                i += 2;
            } else if (c == '\'') {
                state = State::Code;
                ++i;
            } else {
                blank(i);
                ++i;
            }
            break;
        case State::RawString:
            if (source.compare(i, raw_end.size(), raw_end) == 0) {
                for (size_t j = i; j < i + raw_end.size(); ++j)
                    blank(j);
                i += raw_end.size();
                state = State::Code;
            } else {
                blank(i);
                ++i;
            }
            break;
        }
    }
    return out;
}

} // namespace

std::string
stripCommentsAndStrings(const std::string &source)
{
    return sanitize(source, /*strip_comments=*/true);
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &content)
{
    static const std::regex allow_re(
        R"(//\s*LINT-ALLOW\(([A-Za-z0-9-]+)\)\s*(?::\s*(.*))?$)");

    std::vector<Finding> findings;
    // Pass 1: collect the allows. Comments are kept (allows live in
    // them) but string literals are blanked, so prose *about* allows
    // can never register one.
    std::vector<std::string> raw_lines =
        splitLines(sanitize(content, /*strip_comments=*/false));
    std::vector<Allow> allows;
    std::vector<std::string> known = ruleNames();
    for (size_t idx = 0; idx < raw_lines.size(); ++idx) {
        std::smatch m;
        if (!std::regex_search(raw_lines[idx], m, allow_re))
            continue;
        Allow allow;
        allow.line = static_cast<int>(idx + 1);
        allow.rule = m[1].str();
        allow.why = trim(m[2].str());
        if (std::find(known.begin(), known.end(), allow.rule) ==
            known.end()) {
            findings.push_back({path, allow.line, "bad-allow",
                                "LINT-ALLOW names unknown rule \"" +
                                    allow.rule + "\""});
            continue;
        }
        if (allow.why.empty()) {
            findings.push_back(
                {path, allow.line, "bad-allow",
                 "LINT-ALLOW(" + allow.rule +
                     ") has no justification; write "
                     "`// LINT-ALLOW(" +
                     allow.rule + "): <why this line is exempt>`"});
            continue;
        }
        allows.push_back(allow);
    }

    // Pass 2: run the tree rules over the sanitized lines.
    std::vector<std::string> lines =
        splitLines(stripCommentsAndStrings(content));
    for (const Rule &rule : rules()) {
        if (!rule.applies(path))
            continue;
        const std::regex pattern(rule.pattern);
        for (size_t idx = 0; idx < lines.size(); ++idx) {
            if (!std::regex_search(lines[idx], pattern))
                continue;
            int line = static_cast<int>(idx + 1);
            // Same-line or directly-preceding-line allow.
            bool suppressed = false;
            for (Allow &allow : allows) {
                if (allow.rule == rule.name &&
                    (allow.line == line || allow.line == line - 1)) {
                    allow.used = true;
                    suppressed = true;
                }
            }
            if (!suppressed)
                findings.push_back(
                    {path, line, rule.name, rule.message});
        }
    }

    // Pass 3: stale allows.
    for (const Allow &allow : allows) {
        if (!allow.used)
            findings.push_back(
                {path, allow.line, "unused-allow",
                 "LINT-ALLOW(" + allow.rule +
                     ") suppresses nothing here; remove it"});
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

bool
lintTree(const std::string &root,
         const std::vector<std::string> &subdirs,
         std::vector<Finding> &findings, std::string &error)
{
    namespace fs = std::filesystem;
    findings.clear();

    std::vector<std::string> files;
    for (const std::string &sub : subdirs) {
        fs::path base = fs::path(root) / sub;
        std::error_code ec;
        if (fs::is_regular_file(base, ec)) {
            files.push_back(sub);
            continue;
        }
        if (!fs::is_directory(base, ec)) {
            error = "lint root entry is neither a file nor a "
                    "directory: " +
                    base.string();
            return false;
        }
        for (fs::recursive_directory_iterator it(base, ec), end;
             it != end; it.increment(ec)) {
            if (ec) {
                error = "cannot walk " + base.string() + ": " +
                        ec.message();
                return false;
            }
            if (!it->is_regular_file())
                continue;
            fs::path p = it->path();
            if (p.extension() != ".cc" && p.extension() != ".hh")
                continue;
            files.push_back(
                fs::relative(p, fs::path(root)).generic_string());
        }
    }
    std::sort(files.begin(), files.end());

    for (const std::string &file : files) {
        std::ifstream in(fs::path(root) / file, std::ios::binary);
        if (!in) {
            error = "cannot read " + file;
            return false;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::vector<Finding> file_findings = lintFile(file, buf.str());
        findings.insert(findings.end(), file_findings.begin(),
                        file_findings.end());
    }
    // Files were visited in sorted order and per-file findings are
    // line-sorted, so the aggregate is already (file, line)-ordered.
    return true;
}

std::string
formatFinding(const Finding &finding)
{
    return finding.file + ":" + std::to_string(finding.line) + ": [" +
           finding.rule + "] " + finding.message;
}

} // namespace dosa::lint

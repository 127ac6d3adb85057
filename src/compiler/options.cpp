#include "compiler/options.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "lattice/geometry.hpp"

namespace autobraid {

namespace {

/** True when @p s names a known code ("AB101") or family ("AB1xx"). */
bool
knownSuppression(const std::string &s)
{
    if (lint::findDiagInfo(s))
        return true;
    if (s.size() < 3 || s.compare(s.size() - 2, 2, "xx") != 0)
        return false;
    const std::string prefix = s.substr(0, s.size() - 2);
    for (const lint::DiagInfo &info : lint::diagnosticCatalog())
        if (std::string(info.code).compare(0, prefix.size(), prefix) ==
            0)
            return true;
    return false;
}

double
numberOption(const std::string &key, const json::Value &value)
{
    if (!value.isNumber())
        fatal("option '%s' must be a number", key.c_str());
    return value.asNumber();
}

const std::string &
stringOption(const std::string &key, const json::Value &value)
{
    if (!value.isString())
        fatal("option '%s' must be a string", key.c_str());
    return value.asString();
}

/**
 * @p value as an Int. Beyond what the field holds, or beyond the
 * integers a JSON number carries exactly (2^53 - 1), no value can be
 * stored, so the option is out of range whatever validate() allows.
 */
template <typename Int>
Int
integerOption(const std::string &key, const json::Value &value)
{
    constexpr double kMaxExact = 9007199254740991.0;
    const double d = numberOption(key, value);
    if (d != std::floor(d))
        fatal("option '%s' must be an integer, got %.17g", key.c_str(),
              d);
    const double lo = static_cast<double>(std::numeric_limits<Int>::lowest());
    const double hi = static_cast<double>(std::numeric_limits<Int>::max());
    if (d < std::max(lo, -kMaxExact) || d > std::min(hi, kMaxExact))
        fatal("option '%s' is out of range, got %.17g", key.c_str(), d);
    return static_cast<Int>(d);
}

/**
 * A flag's text as a JSON value: a number when the JSON reader takes
 * all of it as one, so "0x10" and "33x" are not, and a string
 * otherwise.
 */
json::Value
flagValue(const std::string &text)
{
    try {
        json::Value value = json::parse(text);
        if (value.isNumber())
            return value;
    } catch (const UserError &) {
        // Not a JSON document ("full", "0x10"): a string, as "true" is.
    }
    return json::Value(text);
}

} // namespace

void
CompileOptions::validate() const
{
    if (!(p_threshold >= 0.0 && p_threshold <= 1.0))
        fatal("option 'p' (p_threshold) must lie in [0, 1], got %g",
              p_threshold);
    if (cost.distance < 1 || cost.distance > 9999)
        fatal("option 'distance' (cost.distance) must be an integer in "
              "[1, 9999], got %d",
              cost.distance);
    if (channel_hold_cycles > 1'000'000'000)
        fatal("option 'teleport' (channel_hold_cycles) must be an "
              "integer in [0, 1000000000], got %llu",
              static_cast<unsigned long long>(channel_hold_cycles));
    if (route_jobs < 1 || route_jobs > kMaxWorkerThreads)
        fatal("option 'route_jobs' must be an integer in [1, %d], got %d",
              kMaxWorkerThreads, route_jobs);
    for (const std::string &s : lint.suppressions)
        if (!knownSuppression(s))
            fatal("unknown lint suppression '%s' (expected a "
                  "diagnostic code like AB101 or a family like AB1xx)",
                  s.c_str());
}

void
CompileOptions::validate(const Circuit &circuit) const
{
    validate();
    if (circuit.numQubits() <= 0)
        fatal("cannot compile '%s': circuit has no qubits",
              circuit.name().c_str());
    const Grid grid = Grid::forQubits(circuit.numQubits());
    for (VertexId v : dead_vertices)
        if (v < 0 || v >= grid.numVertices())
            fatal("dead vertex %d outside the %dx%d grid "
                  "(%d routing vertices)",
                  v, grid.rows(), grid.cols(), grid.numVertices());
}

bool
setOption(CompileOptions &options, const std::string &key,
          const json::Value &value)
{
    if (key == "policy")
        options.policy = parsePolicyName(stringOption(key, value));
    else if (key == "backend")
        options.backend = parseBackendName(stringOption(key, value));
    else if (key == "distance")
        options.cost.distance = integerOption<int>(key, value);
    else if (key == "p")
        options.p_threshold = numberOption(key, value);
    else if (key == "seed")
        options.seed = integerOption<uint64_t>(key, value);
    else if (key == "teleport")
        options.channel_hold_cycles = integerOption<Cycles>(key, value);
    else if (key == "route_jobs")
        options.route_jobs = integerOption<int>(key, value);
    else if (key == "maslov") {
        if (!value.isBool())
            fatal("option '%s' must be a bool", key.c_str());
        options.allow_maslov = value.asBool();
    } else
        return false;
    return true;
}

bool
setOptionFlag(CompileOptions &options, const char *arg)
{
    if (std::strcmp(arg, "--no-maslov") == 0)
        return setOption(options, "maslov", json::Value(false));
    const char *eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr)
        return false;
    // Flags spell a key's '_' as '-': --route-jobs sets route_jobs.
    // The bool option has only its --no- flag.
    std::string key(arg + 2, eq);
    if (key.find('_') != std::string::npos || key == "maslov")
        return false;
    std::replace(key.begin(), key.end(), '-', '_');
    return setOption(options, key, flagValue(eq + 1));
}

} // namespace autobraid

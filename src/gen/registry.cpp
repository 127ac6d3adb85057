#include "gen/registry.hpp"

#include <limits>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"
#include "gen/adder.hpp"
#include "gen/bv.hpp"
#include "gen/bwt.hpp"
#include "gen/cc.hpp"
#include "gen/grover.hpp"
#include "gen/ising.hpp"
#include "gen/qaoa.hpp"
#include "gen/qft.hpp"
#include "gen/qpe.hpp"
#include "gen/revlib.hpp"
#include "gen/shor.hpp"
#include "gen/stdlib.hpp"
#include "qasm/elaborator.hpp"

namespace autobraid {
namespace gen {
namespace {

/** Field @p idx of the spec as an int: the whole field, no junk. */
int
argAsInt(const std::vector<std::string> &fields, size_t idx,
         int fallback)
{
    if (idx >= fields.size())
        return fallback;
    return parseCheckedIntFlag(fields[idx], "a benchmark spec field",
                               std::numeric_limits<int>::min(),
                               std::numeric_limits<int>::max());
}

} // namespace

Circuit
make(const std::string &spec)
{
    const auto fields = split(spec, ':');
    if (fields.empty())
        fatal("empty benchmark spec");
    const std::string &family = fields[0];

    if (family == "qft") {
        const int n = argAsInt(fields, 1, -1);
        const bool swaps = argAsInt(fields, 2, 0) != 0;
        return makeQft(n, swaps);
    }
    if (family == "bv")
        return makeBv(argAsInt(fields, 1, -1));
    if (family == "cc")
        return makeCc(argAsInt(fields, 1, -1));
    if (family == "im")
        return makeIsing(argAsInt(fields, 1, -1),
                         argAsInt(fields, 2, 2));
    if (family == "qaoa")
        return makeQaoa(argAsInt(fields, 1, -1),
                        argAsInt(fields, 2, 8));
    if (family == "bwt")
        return makeBwt(argAsInt(fields, 1, -1), argAsInt(fields, 2, 1));
    if (family == "shor")
        return makeShor(argAsInt(fields, 1, -1),
                        argAsInt(fields, 2, 36));
    if (family == "qpe")
        return makeQpe(argAsInt(fields, 1, -1),
                       argAsInt(fields, 2, 4));
    if (family == "grover")
        return makeGrover(argAsInt(fields, 1, -1),
                          argAsInt(fields, 2, 1),
                          static_cast<uint64_t>(
                              argAsInt(fields, 3, 0)));
    if (family == "adder")
        return makeAdder(argAsInt(fields, 1, -1));
    if (family == "ghz")
        return makeGhz(argAsInt(fields, 1, -1),
                       argAsInt(fields, 2, 0) != 0);
    if (family == "randct") {
        const int n = argAsInt(fields, 1, -1);
        const int g = argAsInt(fields, 2, -1);
        const int seed = argAsInt(fields, 3, 1);
        return makeRandomCliffordT(n, g,
                                   static_cast<uint64_t>(seed));
    }
    if (family == "revlib") {
        if (fields.size() < 2)
            fatal("revlib spec needs a name, e.g. revlib:urf2_277");
        return makeRevlib(fields[1]);
    }
    if (family == "mct") {
        const int q = argAsInt(fields, 1, -1);
        const int g = argAsInt(fields, 2, -1);
        const int seed = argAsInt(fields, 3, 1);
        return makeMctNetwork(q, g, static_cast<uint64_t>(seed));
    }
    if (family == "qasm") {
        if (fields.size() < 2)
            fatal("qasm spec needs a path, e.g. qasm:foo.qasm");
        return qasm::loadCircuit(fields[1]);
    }
    fatal("unknown benchmark family '%s'", family.c_str());
}

std::string
family(const std::string &spec)
{
    const auto fields = split(spec, ':');
    return fields.empty() ? std::string() : fields[0];
}

std::vector<std::string>
exampleSpecs()
{
    return {
        "qft:16",   "qft:200",         "bv:100",      "cc:100",
        "im:10",    "im:500",          "qaoa:100",    "bwt:179",
        "shor:234", "revlib:urf2_277", "mct:8:500:1", "qpe:8:4",
        "grover:6", "adder:8",         "ghz:16",      "randct:9:200:1",
    };
}

} // namespace gen
} // namespace autobraid

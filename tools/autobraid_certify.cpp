/**
 * @file
 * autobraid_certify — independent schedule checker.
 *
 * Consumes the versioned `autobraid-schedule` v1 JSON written by
 * autobraid_cli --schedule-out (docs/observability.md) and re-verifies
 * the schedule from scratch, sharing no scheduler code: dependence
 * order, per-instant vertex disjointness (its own naive occupancy
 * map), backend-correct gate durations, path contiguity, and two
 * makespan lower bounds (per-qubit critical path and the AB202
 * channel-capacity bound). The result is a machine-readable
 * certificate pinning the optimality-gap ratio.
 *
 *   autobraid_certify SCHEDULE.json...
 *       Certify each schedule; prints one summary line per input.
 *
 *   autobraid_certify --out=FILE SCHEDULE.json
 *       Also write the JSON certificate (single input; "-" = stdout).
 *
 *   autobraid_certify --quiet SCHEDULE.json...
 *       Suppress per-violation detail; summary lines only.
 *
 * Exit status: 0 every schedule certified, 1 any violation found,
 * 2 usage or input parse error.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/certify.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"

using namespace autobraid;

namespace {

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: autobraid_certify [options] <schedule.json>...\n"
        "  --out=FILE   write the JSON certificate (single input;\n"
        "               \"-\" = stdout)\n"
        "  --quiet      summary lines only, no per-violation detail\n"
        "Inputs are autobraid-schedule v1 JSONs\n"
        "(autobraid_cli --schedule-out).\n"
        "Exit: 0 certified, 1 violations, 2 usage/parse error.\n");
    std::exit(code);
}

int
run(int argc, char **argv)
{
    std::string out;
    bool quiet = false;
    std::vector<std::string> inputs;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string value;
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(0);
        } else if (matchValue(arg, "--out", value)) {
            out = value;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            quiet = true;
        } else if (arg[0] == '-' && arg[1] != '\0') {
            std::fprintf(stderr, "unknown option '%s'\n", arg);
            usage(2);
        } else {
            inputs.emplace_back(arg);
        }
    }
    if (inputs.empty())
        usage(2);
    if (!out.empty() && inputs.size() != 1) {
        std::fprintf(stderr,
                     "--out needs exactly one input schedule\n");
        usage(2);
    }

    int rc = 0;
    for (const std::string &input : inputs) {
        const certify::Certificate cert = certify::certifyScheduleText(
            readTextFile(input));
        if (!quiet)
            for (const certify::Violation &v : cert.violations)
                std::fprintf(stderr, "%s: %s\n", input.c_str(),
                             v.toString().c_str());
        std::printf(
            "%s: %s  circuit=%s policy=%s backend=%s gates=%zu "
            "makespan=%llu lower_bound=%llu gap=%.3f "
            "violations=%zu\n",
            input.c_str(), cert.ok ? "CERTIFIED" : "REJECTED",
            cert.circuit.c_str(), cert.policy.c_str(),
            cert.backend.c_str(), cert.gates,
            static_cast<unsigned long long>(cert.makespan),
            static_cast<unsigned long long>(cert.lower_bound),
            cert.optimality_gap, cert.violations.size());
        if (!out.empty()) {
            if (out == "-")
                std::fputs((cert.toJson() + "\n").c_str(), stdout);
            else
                writeTextFile(out, cert.toJson() + "\n");
        }
        if (!cert.ok)
            rc = 1;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const UserError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return 2;
    }
}

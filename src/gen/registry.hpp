/**
 * @file
 * Benchmark registry: string specs to circuits.
 *
 * Spec grammar: "family:arg[:arg]" —
 *   qft:N[:swaps]   BV: bv:N    cc:N    im:N[:steps]
 *   qaoa:N[:rounds] bwt:N[:steps]      shor:BITS[:rounds]
 *   revlib:NAME     mct:Q:G:SEED       qasm:PATH
 * The bench harness and the examples address every workload through this
 * single entry point.
 */

#ifndef AUTOBRAID_GEN_REGISTRY_HPP
#define AUTOBRAID_GEN_REGISTRY_HPP

#include <string>
#include <vector>

#include "circuit/circuit.hpp"

namespace autobraid {
namespace gen {

/** Build the circuit described by @p spec; raises UserError when bad. */
Circuit make(const std::string &spec);

/**
 * The family make() dispatches @p spec to: its first non-empty
 * ':'-separated field, or "" when it has none.
 */
std::string family(const std::string &spec);

/** Example specs for every supported family (docs and --list output). */
std::vector<std::string> exampleSpecs();

} // namespace gen
} // namespace autobraid

#endif // AUTOBRAID_GEN_REGISTRY_HPP

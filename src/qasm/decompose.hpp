/**
 * @file
 * Circuit-level gate queries.
 */

#ifndef AUTOBRAID_QASM_DECOMPOSE_HPP
#define AUTOBRAID_QASM_DECOMPOSE_HPP

#include "circuit/circuit.hpp"

namespace autobraid {
namespace qasm {

/** Count gates of a given kind. */
size_t countKind(const Circuit &circuit, GateKind kind);

} // namespace qasm
} // namespace autobraid

#endif // AUTOBRAID_QASM_DECOMPOSE_HPP

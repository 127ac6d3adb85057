/**
 * @file
 * Circuit- and QASM-level lints (AB1xx family).
 *
 * Circuit lints operate on the lowered gate list and therefore cover
 * every front end (QASM files, benchmark generators, fuzz circuits);
 * when the circuit came from QASM, a GateProvenance side table maps
 * gate indices back to source lines so diagnostics carry real
 * locations. Program lints operate on the parsed OpenQASM AST and
 * catch input bugs that elaboration either rejects with a hard error
 * (register-width mismatch, reported here gracefully first) or
 * silently accepts (unused cregs, classical-bit overflow, use after
 * measurement).
 */

#ifndef AUTOBRAID_ANALYSIS_CIRCUIT_LINTS_HPP
#define AUTOBRAID_ANALYSIS_CIRCUIT_LINTS_HPP

#include "analysis/diagnostics.hpp"
#include "circuit/circuit.hpp"
#include "qasm/ast.hpp"

namespace autobraid {
namespace lint {

/** Per-gate source lines (from qasm::elaborateWithLines). */
struct GateProvenance
{
    std::string file;       ///< source path ("" = in-memory)
    std::vector<int> lines; ///< 1-based line per gate; 0 = unknown

    /** Location of gate @p g ("" / line 0 when unknown). */
    SourceLoc at(GateIdx g) const;
};

/**
 * Run the circuit-level lints: AB103 (unused qubits), AB106 (adjacent
 * self-inverse pairs), AB107 (magic-state hotspots), AB108 (gates on
 * dead qubits, via backward liveness). @p reset_gates lists the
 * Measure gates that lower a `reset` statement
 * (qasm::ElaboratedCircuit::reset_gates); AB108 treats them as kills
 * instead of observations. AB101 is AST-level only: Gate::twoQubit
 * rejects duplicate operands, so such gates cannot exist in a Circuit.
 */
void lintCircuit(const Circuit &circuit, DiagnosticEngine &engine,
                 const GateProvenance *provenance = nullptr,
                 const std::vector<GateIdx> *reset_gates = nullptr);

/**
 * Run the AST-level lints on a parsed program: AB101 (operands
 * aliasing one qubit), AB102 (use after measurement), AB103 (unused
 * qreg), AB104 (unused creg), AB105 (register-width mismatch and
 * classical-bit overflow), AB109 (dead measurements, via a forward
 * sweep over the creg bits). @p file labels the source locations.
 */
void lintProgram(const qasm::Program &program,
                 DiagnosticEngine &engine,
                 const std::string &file = "");

} // namespace lint
} // namespace autobraid

#endif // AUTOBRAID_ANALYSIS_CIRCUIT_LINTS_HPP

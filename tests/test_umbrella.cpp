/**
 * @file
 * Compile-and-touch test for the umbrella header: a downstream user
 * including only "autobraid.hpp" can reach every subsystem.
 */

#include <gtest/gtest.h>

#include "autobraid.hpp"

namespace autobraid {
namespace {

TEST(Umbrella, EndToEndThroughSingleInclude)
{
    // Generator -> stats -> placement -> schedule -> validate ->
    // render, all through the umbrella include.
    const Circuit circuit = gen::make("im:9:1");
    const CircuitStats stats = analyzeCircuit(circuit);
    EXPECT_EQ(stats.num_qubits, 9);

    CompileOptions options;
    options.record_trace = true;
    const CompileReport report = compileCircuit(circuit, options);
    EXPECT_EQ(report.result.makespan, report.critical_path);

    const Grid grid = Grid::forQubits(9);
    const ValidationReport validation = validateSchedule(
        circuit, report.result, options.cost, &grid);
    EXPECT_TRUE(validation.ok) << validation.toString();

    const std::string json = viz::reportToJson(report, options.cost);
    EXPECT_NE(json.find("\"circuit\""), std::string::npos);

    const std::string qasm_text = qasm::toQasm(circuit);
    EXPECT_EQ(qasm::parseToCircuit(qasm_text).size(), circuit.size());
}

} // namespace
} // namespace autobraid

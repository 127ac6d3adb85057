/**
 * @file
 * Quickstart: build a small logical circuit with the fluent API,
 * compile it with each scheduling policy, and print what AutoBraid
 * reports — critical path, encoded makespan, braids, utilization.
 *
 * Run: ./quickstart
 */

#include <cstdio>

#include "compiler/driver.hpp"

using namespace autobraid;

int
main()
{
    // A 6-qubit GHZ-then-mix circuit: one H, a CX fan, a T layer, and
    // a round of neighbour CX gates.
    Circuit circuit(6, "ghz-mix");
    circuit.h(0);
    for (Qubit q = 1; q < 6; ++q)
        circuit.cx(0, q);
    for (Qubit q = 0; q < 6; ++q)
        circuit.t(q);
    for (Qubit q = 0; q + 1 < 6; q += 2)
        circuit.cx(q, q + 1);
    for (Qubit q = 0; q < 6; ++q)
        circuit.measure(q);

    std::printf("circuit: %s — %d qubits, %zu gates, %zu of them CX\n\n",
                circuit.name().c_str(), circuit.numQubits(),
                circuit.size(), circuit.twoQubitCount());

    for (SchedulerPolicy policy :
         {SchedulerPolicy::Baseline, SchedulerPolicy::AutobraidSP,
          SchedulerPolicy::AutobraidFull}) {
        CompileOptions options;
        options.policy = policy;
        const CompileReport report = compileCircuit(circuit, options);
        std::printf("%-15s grid=%dx%d  CP=%7.0f us  makespan=%7.0f us "
                    "(%.2fx CP)  braids=%zu  peak util=%.0f%%\n",
                    policyName(policy), report.grid_side,
                    report.grid_side, report.cpMicros(options.cost),
                    report.micros(options.cost), report.cpRatio(),
                    report.result.braids_routed,
                    100.0 * report.result.peak_utilization);
        // The compilation ran as a fixed, instrumented stage sequence;
        // the report breaks the wall time down per stage.
        if (policy == SchedulerPolicy::AutobraidFull) {
            std::printf("  passes:");
            for (const PassTiming &t : report.pass_timings)
                std::printf(" %s=%.4fs", t.pass.c_str(), t.seconds);
            std::printf("\n");
        }
    }

    std::printf("\nSurface-code context (paper eq. 1):\n");
    SurfaceCodeParams params;
    for (int d : {17, 25, 33}) {
        std::printf("  d=%2d  P_L=%.3e  physical qubits for this "
                    "grid: %ld\n",
                    d, params.logicalErrorRate(d),
                    params.physicalQubits(9, d));
    }
    return 0;
}

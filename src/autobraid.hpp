/**
 * @file
 * Umbrella header: the complete public API of the AutoBraid library.
 *
 *     #include "autobraid.hpp"
 *
 * Pulls in circuit construction, the QASM front end and exporter, all
 * benchmark generators, the lattice and cost models, placement,
 * routing, LLG analysis, the schedulers and pipeline, validation, and
 * visualization.
 */

#ifndef AUTOBRAID_AUTOBRAID_HPP
#define AUTOBRAID_AUTOBRAID_HPP

// Circuit IR and analysis.
#include "circuit/circuit.hpp"
#include "circuit/coupling.hpp"
#include "circuit/dag.hpp"
#include "circuit/layers.hpp"
#include "circuit/stats.hpp"

// OpenQASM 2.0 front end / exporter.
#include "qasm/decompose.hpp"
#include "qasm/elaborator.hpp"
#include "qasm/exporter.hpp"
#include "qasm/parser.hpp"

// Benchmark generators.
#include "gen/registry.hpp"

// Static analysis (autobraid-lint).
#include "analysis/lint.hpp"

// Lattice, error model, costs, defects.
#include "lattice/cost_model.hpp"
#include "lattice/defects.hpp"
#include "lattice/geometry.hpp"
#include "lattice/surface_code.hpp"

// LLG analysis and routing.
#include "llg/bbox.hpp"
#include "llg/llg.hpp"
#include "route/astar.hpp"
#include "route/greedy_finder.hpp"
#include "route/stack_finder.hpp"

// Placement.
#include "place/initial.hpp"

// Scheduling and validation.
#include "sched/scheduler.hpp"
#include "sched/validator.hpp"

// Compiler driver: the fixed stage sequence, batch front-end.
#include "compiler/batch.hpp"
#include "compiler/driver.hpp"

// Visualization / export.
#include "viz/ascii.hpp"
#include "viz/json.hpp"

#endif // AUTOBRAID_AUTOBRAID_HPP

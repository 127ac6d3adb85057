/**
 * @file
 * Independent schedule certifier — the one checker of the scheduling
 * rules.
 *
 * A format=autobraid-schedule v1 document (see
 * src/sched/schedule_export.hpp and docs/observability.md) reaches the
 * rules as a plain Schedule value through one of two front ends: the
 * text decoder below (tools/autobraid_certify, certifyScheduleText),
 * which reads straight from json::Reader and builds no tree, or the
 * in-memory builder scheduleDocument() beside the exporter
 * (validateSchedule, the compiler's validate stage, the fuzz oracle).
 * Both yield the same value for the same schedule, so both produce
 * the same certificate.
 *
 * The rules are a deliberately separate implementation of the
 * scheduling semantics: per-qubit dependence chains instead of the
 * scheduler's Dag, a naive per-vertex interval occupancy map instead
 * of BlockedBitset, and path geometry and tile corners recomputed from
 * raw vertex-id arithmetic. Every certificate also pins two makespan
 * lower bounds — the dependence-chain critical path and the AB202
 * channel-capacity bound — so each certified schedule carries an
 * optimality-gap ratio.
 *
 * The certifier never trusts the producing binary: a shared defect
 * in, e.g., the blocked-mask bookkeeping or a backend duration table
 * shows up here as a violation. tools/autobraid_certify wraps this
 * as a CLI (exit 1 on any violation).
 */

#ifndef AUTOBRAID_ANALYSIS_CERTIFY_HPP
#define AUTOBRAID_ANALYSIS_CERTIFY_HPP

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/dag.hpp"
#include "circuit/gate.hpp"
#include "common/json.hpp"
#include "lattice/geometry.hpp"
#include "sched/backend.hpp"

namespace autobraid {
namespace certify {

/** One schedule entry: a gate's window, or an inserted SWAP's. */
struct Entry
{
    long long gate = -1;     ///< index into Schedule::gates; -1 = SWAP
    Cycles start = 0;
    Cycles finish = 0;
    Cycles release = 0;      ///< when the path's vertices free up
    Qubit swap_a = kNoQubit; ///< inserted SWAP's pair (absent: kNoQubit)
    Qubit swap_b = kNoQubit;
    std::vector<VertexId> path; ///< braid path or merge region
};

/**
 * An autobraid-schedule v1 document as plain values: exactly the
 * document's fields, nothing derived. Gates carry kind and operands
 * only.
 */
struct Schedule
{
    std::string circuit;
    std::string policy;
    std::string backend; ///< "braiding" | "surgery"
    int distance = 0;
    int grid_rows = 0;
    int grid_cols = 0;
    int num_qubits = 0;
    Cycles channel_hold_cycles = 0;
    bool used_maslov = false;
    size_t swaps_inserted = 0;
    size_t braids_routed = 0;
    Cycles makespan = 0;
    std::vector<VertexId> dead_vertices;
    std::optional<std::vector<CellId>> placement; ///< qubit -> cell id
    std::vector<Gate> gates;
    std::vector<Entry> entries;
};

/** One failed check. */
struct Violation
{
    std::string check;   ///< stable check id, e.g. "vertex-overlap"
    std::string message; ///< human-readable detail

    std::string toString() const;
};

/** Machine-readable certification outcome. */
struct Certificate
{
    bool ok = false;
    std::string circuit;
    std::string policy;
    std::string backend; ///< "braiding" | "surgery"
    size_t gates = 0;    ///< gate-list length
    size_t scheduled = 0; ///< distinct gates found in the trace
    size_t swaps = 0;     ///< inserted-SWAP trace entries
    Cycles makespan = 0;

    /** Dependence-chain critical path (always computed). */
    Cycles critical_path_bound = 0;

    /**
     * AB202 channel-capacity bound; 0 when not applicable (lattice
     * surgery, swap-inserted or Maslov runs, missing placement).
     */
    Cycles channel_bound = 0;

    /** max(critical_path_bound, channel_bound). */
    Cycles lower_bound = 0;

    /** makespan / lower_bound; 0 when the lower bound is 0. */
    double optimality_gap = 0;

    /**
     * At most 64 stored; past that one final "truncated" entry counts
     * the suppressed rest.
     */
    std::vector<Violation> violations;

    /** format=autobraid-certificate v1 JSON. */
    std::string toJson() const;
};

/**
 * The certifier's own duration of a @p kind gate at code distance
 * @p distance (>= 1) under @p backend, written from the documented cost
 * model rather than taken from the scheduler's: CX 2d+2 and SWAP
 * 3(2d+2) when braiding, 2d and 3*2d under lattice surgery; H and
 * measurement d; S/Sdg 1; T/Tdg/RX/RY/RZ 2; I, X, Y, Z and barrier 0.
 */
Cycles expectedDuration(GateKind kind, SchedulerBackend backend,
                        int distance);

/**
 * Decode autobraid-schedule @p text. Malformed JSON, wrong
 * format/version, missing or mistyped fields and unknown gate kinds
 * raise UserError. Decode errors wait until the whole text has been
 * read, so a syntax error anywhere wins; among decode errors the first
 * in a fixed field order wins, whatever order the members come in,
 * and a repeated member counts only as its last occurrence.
 */
Schedule decodeSchedule(std::string_view text);

/**
 * Run every rule over @p schedule. Structural problems (unknown
 * backend, degenerate grid, malformed placement) raise UserError;
 * semantic violations land in Certificate::violations with ok=false.
 */
Certificate certifySchedule(const Schedule &schedule);

/** Decode @p text and certify it. */
Certificate certifyScheduleText(const std::string &text);

} // namespace certify
} // namespace autobraid

#endif // AUTOBRAID_ANALYSIS_CERTIFY_HPP

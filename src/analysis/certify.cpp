#include "analysis/certify.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "analysis/layout_lints.hpp"
#include "common/error.hpp"
#include "common/text.hpp"
#include "lattice/cost_model.hpp"
#include "lattice/geometry.hpp"
#include "llg/bbox.hpp"
#include "sched/backend.hpp"

namespace autobraid {
namespace certify {

namespace {

/** Cap on stored violations; past it only the count grows. */
constexpr size_t kMaxViolations = 64;

/**
 * Cap on grid tiles. The rules allocate per vertex and per qubit, so
 * a larger header is rejected before they run. The largest compile in
 * this repository, IM-5000 in bench/fig16, uses 71 x 71 tiles.
 */
constexpr long long kMaxTiles = 1 << 20;

/**
 * The first failure of a member checked as @p key: absent, or the
 * first check its value failed. Optional members pass when absent.
 */
std::string
firstError(const json::Member &m, const char *key, bool optional = false)
{
    if (m.seen || optional)
        return m.error;
    return strformat("schedule document is missing \"%s\"", key);
}

/**
 * Read the number at the cursor into @p out as an Int. The range is
 * checked on the double, before the cast: lowest() and max() + 1 are
 * powers of two, so both are exact.
 */
template <typename Int>
std::string
readInt(json::Reader &r, const char *what, Int &out)
{
    if (r.peek() != json::Value::Kind::Number)
        return r.mismatch("number");
    const double d = r.number();
    using Limits = std::numeric_limits<Int>;
    if (!(d >= static_cast<double>(Limits::lowest()) &&
          d < std::ldexp(1.0, Limits::digits)))
        return strformat("schedule field \"%s\" is out of range (%.17g)",
                         what, d);
    out = static_cast<Int>(d);
    if (static_cast<double>(out) != d)
        return strformat("schedule field \"%s\" is not an integer",
                         what);
    return {};
}

std::string
readString(json::Reader &r, std::string &out)
{
    if (r.peek() != json::Value::Kind::String)
        return r.mismatch("string");
    out = r.string();
    return {};
}

std::string
readBool(json::Reader &r, bool &out)
{
    if (r.peek() != json::Value::Kind::Bool)
        return r.mismatch("bool");
    out = r.boolean();
    return {};
}

/** Read an array of Ints into @p out, replacing what it held. */
template <typename Int>
std::string
readInts(json::Reader &r, const char *what, std::vector<Int> &out)
{
    if (r.peek() != json::Value::Kind::Array)
        return r.mismatch("array");
    out.clear();
    return json::readElements(
        r, [&] { return readInt(r, what, out.emplace_back()); });
}

/** Reverse of gateName(); false on an unknown mnemonic. */
bool
kindFromName(std::string_view name, GateKind &out)
{
    static const GateKind kAll[] = {
        GateKind::I,       GateKind::X,  GateKind::Y,
        GateKind::Z,       GateKind::H,  GateKind::S,
        GateKind::Sdg,     GateKind::T,  GateKind::Tdg,
        GateKind::RX,      GateKind::RY, GateKind::RZ,
        GateKind::Measure, GateKind::CX, GateKind::Swap,
        GateKind::Barrier};
    for (GateKind k : kAll)
        if (name == gateName(k)) {
            out = k;
            return true;
        }
    return false;
}

/** One gate-list element into @p g, or the first check it fails. */
std::string
readGate(json::Reader &r, Gate &g)
{
    static constexpr const char *kKeys[] = {"kind", "q0", "q1"};
    json::Member m[std::size(kKeys)];
    std::string kind;
    json::readMembers(r, kKeys, m, [&](size_t i) {
        if (i == 0)
            return readString(r, kind);
        return readInt(r, kKeys[i], i == 1 ? g.q0 : g.q1);
    });
    if (std::string e = firstError(m[0], "kind"); !e.empty())
        return e;
    if (!kindFromName(kind, g.kind))
        return strformat("schedule gate list has unknown kind \"%s\"",
                         kind.c_str());
    if (std::string e = firstError(m[1], "q0"); !e.empty())
        return e;
    return firstError(m[2], "q1");
}

/** One schedule entry into @p e, or the first check it fails. */
std::string
readEntry(json::Reader &r, Entry &e)
{
    // In check order; swap_a and swap_b may be absent.
    static constexpr const char *kKeys[] = {
        "gate", "start", "finish", "release", "swap_a", "swap_b", "path"};
    json::Member m[std::size(kKeys)];
    json::readMembers(r, kKeys, m, [&](size_t i) {
        switch (i) {
        case 0:
            return readInt(r, kKeys[i], e.gate);
        case 1:
            return readInt(r, kKeys[i], e.start);
        case 2:
            return readInt(r, kKeys[i], e.finish);
        case 3:
            return readInt(r, kKeys[i], e.release);
        case 4:
            return readInt(r, kKeys[i], e.swap_a);
        case 5:
            return readInt(r, kKeys[i], e.swap_b);
        default:
            return readInts(r, kKeys[i], e.path);
        }
    });
    for (size_t i = 0; i < std::size(kKeys); ++i)
        if (std::string error = firstError(m[i], kKeys[i], i == 4 || i == 5);
            !error.empty())
            return error;
    return {};
}

/** The document's members, in the order their checks run. */
enum Field : size_t
{
    kFormat,
    kVersion,
    kCircuit,
    kPolicy,
    kBackend,
    kDistance,
    kGridRows,
    kGridCols,
    kNumQubits,
    kChannelHold,
    kUsedMaslov,
    kSwapsInserted,
    kBraidsRouted,
    kMakespan,
    kDeadVertices,
    kPlacement, ///< optional
    kGates,
    kEntries,
    kNumFields
};
constexpr const char *kFieldNames[kNumFields] = {
    "format",        "version",        "circuit",
    "policy",        "backend",        "distance",
    "grid_rows",     "grid_cols",      "num_qubits",
    "channel_hold_cycles", "used_maslov", "swaps_inserted",
    "braids_routed", "makespan",       "dead_vertices",
    "placement",     "gates",          "schedule"};

/** Read member @p field of the document into @p s. */
std::string
readField(json::Reader &r, Field field, Schedule &s)
{
    switch (field) {
    case kFormat: {
        std::string format;
        std::string error = readString(r, format);
        if (error.empty() && format != "autobraid-schedule")
            error = strformat(
                "not an autobraid-schedule document (format \"%s\")",
                format.c_str());
        return error;
    }
    case kVersion: {
        int version = 0;
        std::string error = readInt(r, "version", version);
        if (error.empty() && version != 1)
            error = strformat("unsupported autobraid-schedule version %d",
                              version);
        return error;
    }
    case kCircuit:
        return readString(r, s.circuit);
    case kPolicy:
        return readString(r, s.policy);
    case kBackend:
        return readString(r, s.backend);
    case kDistance:
        return readInt(r, "distance", s.distance);
    case kGridRows:
        return readInt(r, "grid_rows", s.grid_rows);
    case kGridCols:
        return readInt(r, "grid_cols", s.grid_cols);
    case kNumQubits:
        return readInt(r, "num_qubits", s.num_qubits);
    case kChannelHold:
        return readInt(r, "channel_hold_cycles", s.channel_hold_cycles);
    case kUsedMaslov:
        return readBool(r, s.used_maslov);
    case kSwapsInserted:
        return readInt(r, "swaps_inserted", s.swaps_inserted);
    case kBraidsRouted:
        return readInt(r, "braids_routed", s.braids_routed);
    case kMakespan:
        return readInt(r, "makespan", s.makespan);
    case kDeadVertices:
        return readInts(r, "dead", s.dead_vertices);
    case kPlacement:
        return readInts(r, "placement", s.placement.emplace());
    case kGates:
        if (r.peek() != json::Value::Kind::Array)
            return r.mismatch("array");
        s.gates.clear();
        return json::readElements(
            r, [&] { return readGate(r, s.gates.emplace_back()); });
    case kEntries:
    case kNumFields:
        break;
    }
    if (r.peek() != json::Value::Kind::Array)
        return r.mismatch("array");
    s.entries.clear();
    return json::readElements(
        r, [&] { return readEntry(r, s.entries.emplace_back()); });
}

} // namespace

std::string
Violation::toString() const
{
    return check + ": " + message;
}

std::string
Certificate::toJson() const
{
    std::string out;
    json::Writer w(out, json::Writer::Layout::Document);
    w.beginObject();
    w.key("format").value("autobraid-certificate");
    w.key("version").value(1);
    w.key("ok").value(ok);
    w.key("circuit").value(circuit);
    w.key("policy").value(policy);
    w.key("backend").value(backend);
    w.key("gates").value(gates);
    w.key("scheduled").value(scheduled);
    w.key("swaps").value(swaps);
    w.key("makespan").value(makespan);
    w.key("critical_path_bound").value(critical_path_bound);
    w.key("channel_bound").value(channel_bound);
    w.key("lower_bound").value(lower_bound);
    w.key("optimality_gap").fixed(optimality_gap, 6);
    w.key("violations").beginRows();
    for (const Violation &v : violations)
        w.beginObject()
            .key("check").value(v.check)
            .key("message").value(v.message)
            .end();
    w.end().end();
    return out;
}

Schedule
decodeSchedule(std::string_view text)
{
    json::Reader r(text);
    Schedule s;
    json::Member members[kNumFields];
    json::readMembers(r, kFieldNames, members, [&](size_t field) {
        return readField(r, static_cast<Field>(field), s);
    });
    // The whole text has been read, so a syntax error anywhere has
    // already won; decode errors come out in check order.
    r.finish();
    for (size_t f = 0; f < kNumFields; ++f)
        if (std::string error =
                firstError(members[f], kFieldNames[f], f == kPlacement);
            !error.empty())
            throw UserError(error);
    return s;
}

Cycles
expectedDuration(GateKind kind, SchedulerBackend backend, int distance)
{
    const auto d = static_cast<Cycles>(distance);
    const Cycles cx =
        backend == SchedulerBackend::LatticeSurgery ? 2 * d : 2 * d + 2;
    switch (kind) {
      case GateKind::I:
      case GateKind::X:
      case GateKind::Y:
      case GateKind::Z:
      case GateKind::Barrier:
        return 0;
      case GateKind::S:
      case GateKind::Sdg:
        return 1;
      case GateKind::T:
      case GateKind::Tdg:
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
        return 2;
      case GateKind::H:
      case GateKind::Measure:
        return d;
      case GateKind::CX:
        return cx;
      case GateKind::Swap:
        return 3 * cx;
    }
    panic("expectedDuration: unknown GateKind %d",
          static_cast<int>(kind));
}

Certificate
certifySchedule(const Schedule &s)
{
    Certificate cert;
    cert.ok = true;
    cert.circuit = s.circuit;
    cert.policy = s.policy;
    cert.backend = s.backend;
    const SchedulerBackend backend = parseBackendName(s.backend);
    if (s.distance <= 0)
        fatal("schedule distance %d is not positive", s.distance);
    const int rows = s.grid_rows;
    const int cols = s.grid_cols;
    if (rows <= 0 || cols <= 0)
        fatal("schedule grid %dx%d is degenerate", rows, cols);
    const long long tiles = static_cast<long long>(rows) * cols;
    if (tiles > kMaxTiles)
        fatal("schedule grid_rows x grid_cols %dx%d is more than %lld "
              "tiles",
              rows, cols, kMaxTiles);
    const int num_qubits = s.num_qubits;
    if (num_qubits <= 0)
        fatal("schedule has %d qubits", num_qubits);
    if (num_qubits > tiles)
        fatal("schedule num_qubits %d is more than the %lld tiles of "
              "its %dx%d grid",
              num_qubits, tiles, rows, cols);
    cert.makespan = s.makespan;

    CostModel cost;
    cost.distance = s.distance;
    const std::vector<Gate> &gates = s.gates;
    const std::vector<Entry> &entries = s.entries;
    cert.gates = gates.size();

    size_t dropped = 0;
    auto violate = [&cert, &dropped](const char *check,
                                     std::string message) {
        cert.ok = false;
        if (cert.violations.size() < kMaxViolations)
            cert.violations.push_back(
                Violation{check, std::move(message)});
        else
            ++dropped;
    };

    // ---- 1. Window sanity and coverage --------------------------
    std::vector<const Entry *> by_gate(gates.size(), nullptr);
    size_t scheduled = 0;
    size_t swap_entries = 0;
    size_t braid_entries = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (e.finish < e.start)
            violate("window",
                    strformat("entry %zu: finish %llu precedes start "
                              "%llu",
                              i,
                              static_cast<unsigned long long>(
                                  e.finish),
                              static_cast<unsigned long long>(
                                  e.start)));
        if (e.release < e.start || e.release > e.finish)
            violate("window",
                    strformat("entry %zu: release %llu outside "
                              "window [%llu, %llu]",
                              i,
                              static_cast<unsigned long long>(
                                  e.release),
                              static_cast<unsigned long long>(
                                  e.start),
                              static_cast<unsigned long long>(
                                  e.finish)));
        if (e.gate < 0) {
            ++swap_entries;
            if (e.swap_a < 0 || e.swap_a >= num_qubits ||
                e.swap_b < 0 || e.swap_b >= num_qubits)
                violate("swap-pair",
                        strformat("entry %zu: inserted SWAP does not "
                                  "name a qubit pair of the %d-qubit "
                                  "register (swap_a %d, swap_b %d)",
                                  i, num_qubits, e.swap_a, e.swap_b));
            if (e.path.empty())
                violate("path",
                        strformat("entry %zu: inserted SWAP without "
                                  "a braiding path",
                                  i));
            continue;
        }
        if (static_cast<size_t>(e.gate) >= gates.size()) {
            violate("coverage",
                    strformat("entry %zu references gate %lld "
                              "beyond gate list size %zu",
                              i, e.gate, gates.size()));
            continue;
        }
        if (!e.path.empty())
            ++braid_entries;
        const Entry *&slot = by_gate[static_cast<size_t>(e.gate)];
        if (slot != nullptr) {
            violate("coverage",
                    strformat("gate %lld scheduled twice", e.gate));
            continue;
        }
        slot = &e;
        ++scheduled;
    }
    cert.scheduled = scheduled;
    cert.swaps = swap_entries;
    const bool complete = scheduled == gates.size();
    if (!complete)
        violate("coverage",
                strformat("%zu of %zu gates missing from the "
                          "schedule",
                          gates.size() - scheduled, gates.size()));
    if (swap_entries != s.swaps_inserted)
        violate("coverage",
                strformat("schedule has %zu swap entries but the "
                          "header reports %zu",
                          swap_entries, s.swaps_inserted));
    if (complete && !gates.empty() &&
        braid_entries != s.braids_routed)
        violate("coverage",
                strformat("schedule has %zu braid entries but the "
                          "header reports %zu routed",
                          braid_entries, s.braids_routed));

    // ---- 2. Backend-correct durations and makespan --------------
    Cycles last_gate_finish = 0;
    for (size_t g = 0; g < gates.size(); ++g) {
        const Entry *e = by_gate[g];
        if (e == nullptr)
            continue;
        const Gate &gate = gates[g];
        const Cycles want =
            expectedDuration(gate.kind, backend, s.distance);
        last_gate_finish = std::max(last_gate_finish, e->finish);
        if (e->finish >= e->start && e->finish - e->start != want)
            violate("duration",
                    strformat("gate %zu (%s): duration %llu, "
                              "expected %llu",
                              g, gate.toString().c_str(),
                              static_cast<unsigned long long>(
                                  e->finish - e->start),
                              static_cast<unsigned long long>(want)));
        if (e->finish > cert.makespan)
            violate("makespan",
                    strformat("gate %zu finishes at %llu past the "
                              "claimed makespan %llu",
                              g,
                              static_cast<unsigned long long>(
                                  e->finish),
                              static_cast<unsigned long long>(
                                  cert.makespan)));
        if (needsBraid(gate.kind) && e->path.empty())
            violate("path",
                    strformat("braid gate %zu has no path", g));
    }
    if (complete && !gates.empty() &&
        last_gate_finish != cert.makespan)
        violate("makespan",
                strformat("last gate finishes at %llu but the "
                          "claimed makespan is %llu",
                          static_cast<unsigned long long>(
                              last_gate_finish),
                          static_cast<unsigned long long>(
                              cert.makespan)));

    // ---- 3. Dependence order (per-qubit program chains) ---------
    for (size_t g = 0; g < gates.size() && complete; ++g) {
        const Qubit ops[2] = {gates[g].q0, gates[g].q1};
        for (Qubit q : ops) {
            if (q < 0)
                continue;
            if (q >= num_qubits) {
                violate("gate-operands",
                        strformat("gate %zu touches qubit %d outside "
                                  "the %d-qubit register",
                                  g, q, num_qubits));
            }
        }
    }
    if (complete) {
        std::vector<long long> last_touch(
            static_cast<size_t>(num_qubits), -1);
        for (size_t g = 0; g < gates.size(); ++g) {
            const Qubit ops[2] = {gates[g].q0, gates[g].q1};
            for (Qubit q : ops) {
                if (q < 0 || q >= num_qubits)
                    continue;
                const long long p =
                    last_touch[static_cast<size_t>(q)];
                if (p >= 0 &&
                    by_gate[g]->start <
                        by_gate[static_cast<size_t>(p)]->finish)
                    violate(
                        "dependence",
                        strformat(
                            "gate %zu starts at %llu before its "
                            "qubit-%d predecessor %lld finishes at "
                            "%llu",
                            g,
                            static_cast<unsigned long long>(
                                by_gate[g]->start),
                            q, p,
                            static_cast<unsigned long long>(
                                by_gate[static_cast<size_t>(p)]
                                    ->finish)));
                last_touch[static_cast<size_t>(q)] =
                    static_cast<long long>(g);
            }
        }
    }

    // ---- 4. Path geometry from raw vertex-id arithmetic ---------
    // No path or region may hold a dead vertex.
    const int vrows = rows + 1;
    const int vcols = cols + 1;
    const VertexId nv = static_cast<VertexId>(vrows * vcols);
    const bool contiguous =
        backend != SchedulerBackend::LatticeSurgery;
    std::vector<uint8_t> dead(static_cast<size_t>(nv), 0);
    for (VertexId v : s.dead_vertices)
        if (v >= 0 && v < nv)
            dead[static_cast<size_t>(v)] = 1;
    // Occurrence counts of the path under inspection, so the revisit
    // test is one lookup instead of a rescan of the path.
    std::vector<uint32_t> occurrences(static_cast<size_t>(nv), 0);
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        for (VertexId v : e.path)
            if (v >= 0 && v < nv)
                ++occurrences[static_cast<size_t>(v)];
        for (size_t k = 0; k < e.path.size(); ++k) {
            const VertexId v = e.path[k];
            if (v < 0 || v >= nv) {
                violate("path",
                        strformat("entry %zu: vertex id %d outside "
                                  "the %dx%d vertex grid",
                                  i, v, vrows, vcols));
                break;
            }
            if (dead[static_cast<size_t>(v)]) {
                violate("dead-vertex",
                        strformat("entry %zu: holds dead vertex %d", i,
                                  v));
                break;
            }
            if (contiguous && k > 0) {
                const VertexId u = e.path[k - 1];
                const int dr = v / vcols - u / vcols;
                const int dc = v % vcols - u % vcols;
                if (std::abs(dr) + std::abs(dc) != 1) {
                    violate("path-contiguity",
                            strformat("entry %zu: hop %d -> %d is "
                                      "not a unit channel segment",
                                      i, u, v));
                    break;
                }
            }
            if (occurrences[static_cast<size_t>(v)] != 1) {
                violate("path",
                        strformat("entry %zu: path revisits vertex "
                                  "%d",
                                  i, v));
                break;
            }
        }
        for (VertexId v : e.path)
            if (v >= 0 && v < nv)
                occurrences[static_cast<size_t>(v)] = 0;
    }

    // ---- 5. Anchoring: each braid joins its operand tiles -------
    // While no qubit has left the embedded initial placement (no
    // inserted SWAP, no Maslov network), a braid path starts on a
    // corner of one operand tile and ends on a corner of the other,
    // in either order, and a merge region holds every live corner of
    // both. Tile r * cols + c has the corners r * vcols + c, the one
    // east of it, and the two below them.
    if (s.placement) {
        const std::vector<CellId> &cell_of = *s.placement;
        if (cell_of.size() != static_cast<size_t>(num_qubits))
            fatal("schedule placement has %zu entries for %d qubits",
                  cell_of.size(), num_qubits);
        for (const CellId cid : cell_of)
            if (cid < 0 || cid >= rows * cols)
                fatal("schedule placement cell id %d outside the "
                      "%dx%d grid",
                      cid, rows, cols);
    }
    if (s.placement && s.swaps_inserted == 0 && !s.used_maslov) {
        auto corners = [&](CellId cid) {
            const VertexId nw = cid / cols * vcols + cid % cols;
            return std::array<VertexId, 4>{nw, nw + 1, nw + vcols,
                                           nw + vcols + 1};
        };
        auto on = [](const std::array<VertexId, 4> &tile, VertexId v) {
            return std::find(tile.begin(), tile.end(), v) != tile.end();
        };
        for (size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            if (e.gate < 0 || static_cast<size_t>(e.gate) >= gates.size() ||
                e.path.empty())
                continue;
            const Gate &gate = gates[static_cast<size_t>(e.gate)];
            if (!needsBraid(gate.kind) || gate.q0 < 0 ||
                gate.q0 >= num_qubits || gate.q1 < 0 ||
                gate.q1 >= num_qubits)
                continue;
            const CellId ta = (*s.placement)[static_cast<size_t>(gate.q0)];
            const CellId tb = (*s.placement)[static_cast<size_t>(gate.q1)];
            const auto a = corners(ta);
            const auto b = corners(tb);
            if (contiguous) {
                const VertexId first = e.path.front();
                const VertexId last = e.path.back();
                if (!(on(a, first) && on(b, last)) &&
                    !(on(b, first) && on(a, last)))
                    violate("anchor",
                            strformat("entry %zu: gate %lld's path runs "
                                      "from vertex %d to %d, not between "
                                      "corners of its tiles %d and %d",
                                      i, e.gate, first, last, ta, tb));
                continue;
            }
            for (const VertexId v : {a[0], a[1], a[2], a[3], b[0], b[1],
                                     b[2], b[3]}) {
                if (dead[static_cast<size_t>(v)] ||
                    std::find(e.path.begin(), e.path.end(), v) !=
                        e.path.end())
                    continue;
                violate("anchor",
                        strformat("entry %zu: gate %lld's merge region "
                                  "misses live corner %d of its tiles",
                                  i, e.gate, v));
                break;
            }
        }
    }

    // ---- 6. Per-instant vertex disjointness ---------------------
    // A naive per-vertex interval map, deliberately independent of
    // the scheduler's BlockedBitset: each braid holds every path
    // vertex for [start, release).
    std::vector<std::vector<std::pair<Cycles, Cycles>>> occupancy(
        static_cast<size_t>(nv));
    for (const Entry &e : entries) {
        if (e.release <= e.start)
            continue;
        for (VertexId v : e.path)
            if (v >= 0 && v < nv)
                occupancy[static_cast<size_t>(v)].emplace_back(
                    e.start, e.release);
    }
    for (VertexId v = 0; v < nv; ++v) {
        auto &holds = occupancy[static_cast<size_t>(v)];
        std::sort(holds.begin(), holds.end());
        for (size_t k = 1; k < holds.size(); ++k) {
            if (holds[k].first < holds[k - 1].second) {
                violate(
                    "vertex-overlap",
                    strformat("vertex %d held by overlapping braids "
                              "[%llu, %llu) and [%llu, %llu)",
                              v,
                              static_cast<unsigned long long>(
                                  holds[k - 1].first),
                              static_cast<unsigned long long>(
                                  holds[k - 1].second),
                              static_cast<unsigned long long>(
                                  holds[k].first),
                              static_cast<unsigned long long>(
                                  holds[k].second)));
                break; // one report per vertex is enough
            }
        }
    }

    // ---- 7. Makespan lower bounds and optimality gap ------------
    // Critical path over the per-qubit dependence chains, timed by
    // expectedDuration as the duration check is.
    {
        std::vector<Cycles> qubit_finish(
            static_cast<size_t>(num_qubits), 0);
        Cycles cp = 0;
        for (const Gate &gate : gates) {
            Cycles ready = 0;
            const Qubit ops[2] = {gate.q0, gate.q1};
            for (Qubit q : ops)
                if (q >= 0 && q < num_qubits)
                    ready = std::max(
                        ready,
                        qubit_finish[static_cast<size_t>(q)]);
            const Cycles fin =
                ready + expectedDuration(gate.kind, backend, s.distance);
            for (Qubit q : ops)
                if (q >= 0 && q < num_qubits)
                    qubit_finish[static_cast<size_t>(q)] = fin;
            cp = std::max(cp, fin);
        }
        cert.critical_path_bound = cp;
    }

    // AB202 channel-capacity bound, recomputed from the embedded
    // initial placement. Sound only for swap-free braiding runs
    // (a relocated or Maslov-rewritten circuit no longer crosses
    // the same cut lines), mirroring the compiler's report stage.
    if (backend == SchedulerBackend::Braiding &&
        s.swaps_inserted == 0 && !s.used_maslov && s.placement) {
        const Grid grid(rows, cols);
        const std::vector<CellId> &cell_of = *s.placement;
        std::vector<CxTask> tasks;
        for (size_t g = 0; g < gates.size(); ++g) {
            const Gate &gate = gates[g];
            if (!needsBraid(gate.kind))
                continue;
            if (gate.q0 < 0 || gate.q0 >= num_qubits ||
                gate.q1 < 0 || gate.q1 >= num_qubits)
                continue; // reported by gate-operands above
            tasks.push_back(CxTask::make(
                g,
                grid.cell(
                    cell_of[static_cast<size_t>(gate.q0)]),
                grid.cell(
                    cell_of[static_cast<size_t>(gate.q1)])));
        }
        cert.channel_bound =
            lint::channelCapacityBound(
                grid, s.dead_vertices, tasks,
                lint::effectiveHold(cost, s.channel_hold_cycles))
                .bound;
    }

    cert.lower_bound =
        std::max(cert.critical_path_bound, cert.channel_bound);
    if (complete && cert.makespan < cert.lower_bound)
        violate("makespan-bound",
                strformat("claimed makespan %llu is below the "
                          "certified lower bound %llu",
                          static_cast<unsigned long long>(
                              cert.makespan),
                          static_cast<unsigned long long>(
                              cert.lower_bound)));
    cert.optimality_gap =
        cert.lower_bound > 0
            ? static_cast<double>(cert.makespan) /
                  static_cast<double>(cert.lower_bound)
            : 0.0;

    if (dropped > 0)
        cert.violations.push_back(Violation{
            "truncated",
            strformat("... suppressed %zu additional violations",
                      dropped)});
    return cert;
}

Certificate
certifyScheduleText(const std::string &text)
{
    return certifySchedule(decodeSchedule(text));
}

} // namespace certify
} // namespace autobraid

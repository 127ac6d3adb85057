#include "telemetry/recorder.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/text.hpp"

namespace autobraid {
namespace telemetry {

namespace {

std::string
missing(const char *key)
{
    return strformat("recording is missing \"%s\"", key);
}

/** The first failure of a member checked as @p key: absent, or its own. */
std::string
firstError(const json::Member &m, const char *key)
{
    return m.seen ? m.error : missing(key);
}

// 2^64, 2^32 and 2^31: one past the largest uint64_t, uint32_t and int.
constexpr double kU64Limit = 18446744073709551616.0;
constexpr double kU32Limit = 4294967296.0;
constexpr double kIntLimit = 2147483648.0;

/** @p d as an integer in [0, @p limit), checked before the cast. */
std::string
natural(double d, const char *what, double limit, uint64_t &out)
{
    if (d >= 0.0 && d < limit) {
        const auto n = static_cast<uint64_t>(d);
        if (static_cast<double>(n) == d) {
            out = n;
            return {};
        }
    }
    return strformat("recording field \"%s\" must be an integer in "
                     "[0, %.0f)",
                     what, limit);
}

/** The number at the cursor; NaN, which no check accepts, for others. */
double
numberOrNan(json::Reader &r)
{
    if (r.peek() == json::Value::Kind::Number)
        return r.number();
    r.skip();
    return std::numeric_limits<double>::quiet_NaN();
}

template <typename Int>
std::string
readNatural(json::Reader &r, const char *what, double limit, Int &out)
{
    uint64_t n = 0;
    std::string error = natural(numberOrNan(r), what, limit, n);
    out = static_cast<Int>(n);
    return error;
}

std::string
readText(json::Reader &r, const char *key, std::string &out)
{
    if (r.peek() == json::Value::Kind::String) {
        out = r.string();
        return {};
    }
    r.skip();
    return strformat("recording field \"%s\" is not a string", key);
}

/** stallCauseName() of each cause, indexed by StallCause. */
constexpr const char *kCauseNames[kNumStallCauses] = {
    "dependence", "congestion", "region_conflict", "defect"};

/** A per-cause stall object into @p by_cause. */
std::string
readStalls(json::Reader &r, uint64_t *by_cause)
{
    json::Member m[kNumStallCauses];
    json::readMembers(r, kCauseNames, m, [&](size_t c) {
        return readNatural(r, kCauseNames[c], kU64Limit, by_cause[c]);
    });
    for (size_t c = 0; c < kNumStallCauses; ++c)
        if (std::string e = firstError(m[c], kCauseNames[c]); !e.empty())
            return e;
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
    kGridRows,
    kGridCols,
    kMakespan,
    kStallTotals,
    kBusy,
    kGates,
    kEvents,
    kNumFields
};
constexpr const char *kFieldNames[kNumFields] = {
    "format",    "version",   "circuit",  "policy",
    "backend",   "grid_rows", "grid_cols", "makespan",
    "stall_totals", "vertex_busy_cycles", "gates", "blocked_events"};

/** A gate's members, in the order their checks run. */
enum GateKey : size_t
{
    kIndex,
    kKind,
    kQ0,
    kQ1,
    kReady, ///< ready, dispatched and retired are optional
    kDispatched,
    kRetired,
    kBlockedAttempts,
    kStall,
    kNumGateKeys
};
constexpr const char *kGateKeys[kNumGateKeys] = {
    "gate",    "kind",     "q0",
    "q1",      "ready",    "dispatched",
    "retired", "blocked_attempts", "stall"};

constexpr const char *kNotRecording =
    "not an autobraid recording (missing "
    "\"format\":\"autobraid-recording\")";

/** A gate operand: -1 (none) or an index below @p limit. */
int32_t
operand(double d, const char *key, double limit)
{
    if (d == -1.0)
        return -1;
    uint64_t n = 0;
    if (std::string error = natural(d, key, limit, n); !error.empty())
        throw UserError(error);
    return static_cast<int32_t>(n);
}

/**
 * decodeRecording's pass over the text. Two checks need fields that
 * may come later in it, the heatmap's length and each gate operand's
 * range, so they run once the text is read, in their place among the
 * others.
 */
class RecordingReader
{
  public:
    explicit RecordingReader(std::string_view text) : r_(text) {}

    FlightRecording
    decode()
    {
        json::readMembers(r_, kFieldNames, members_, [&](size_t field) {
            return readField(static_cast<Field>(field));
        });
        // The whole text has been read, so a syntax error anywhere has
        // already won; decode errors come out in the order of the checks.
        r_.finish();
        for (size_t f = 0; f < kNumFields; ++f) {
            const json::Member &m = members_[f];
            if (!m.seen)
                throw UserError(f == kFormat
                                    ? kNotRecording
                                    : missing(kFieldNames[f]));
            if (f == kBusy)
                checkBusy(m.error);
            else if (f == kGates)
                checkGates(m.error);
            else if (!m.error.empty())
                throw UserError(m.error);
        }
        return std::move(rec_);
    }

  private:
    json::Reader r_;
    FlightRecording rec_;
    json::Member members_[kNumFields];
    /** vertex_busy_cycles' length; empty when it is not an array. */
    std::optional<size_t> busy_entries_;
    /** Each gate's q0 and q1, unchecked; NaN when not a number. */
    std::vector<std::array<double, 2>> operands_;
    /** The gate and check of the gates member's error, if any. */
    size_t bad_gate_ = SIZE_MAX;
    size_t bad_check_ = 0;

    uint64_t
    vertices() const
    {
        return static_cast<uint64_t>(rec_.grid_rows) *
               static_cast<uint64_t>(rec_.grid_cols);
    }

    std::string
    notArray(const char *key)
    {
        r_.skip();
        return strformat("recording field \"%s\" is not an array", key);
    }

    std::string
    readField(Field field)
    {
        const char *key = kFieldNames[field];
        switch (field) {
        case kFormat:
            if (r_.peek() == json::Value::Kind::String)
                return r_.string() == "autobraid-recording"
                           ? ""
                           : kNotRecording;
            r_.skip();
            return kNotRecording;
        case kVersion: {
            uint64_t version = 0;
            std::string error = readNatural(r_, key, kU64Limit, version);
            if (error.empty() && version != 1)
                error = strformat(
                    "unsupported recording version %llu",
                    static_cast<unsigned long long>(version));
            return error;
        }
        case kCircuit:
            return readText(r_, key, rec_.circuit);
        case kPolicy:
            return readText(r_, key, rec_.policy);
        case kBackend:
            return readText(r_, key, rec_.backend);
        case kGridRows:
            return readNatural(r_, key, kIntLimit, rec_.grid_rows);
        case kGridCols:
            return readNatural(r_, key, kIntLimit, rec_.grid_cols);
        case kMakespan:
            return readNatural(r_, key, kU64Limit, rec_.makespan);
        case kStallTotals:
            return readStalls(r_, rec_.stall_totals);
        case kBusy: {
            busy_entries_.reset();
            if (r_.peek() != json::Value::Kind::Array)
                return notArray(key);
            // The length check runs before the entries', so count on
            // past the first bad entry.
            rec_.vertex_busy_cycles.clear();
            size_t entries = 0;
            std::string error;
            r_.beginArray();
            for (; r_.nextElement(); ++entries) {
                if (!error.empty())
                    r_.skip();
                else
                    error = readNatural(
                        r_, key, kU64Limit,
                        rec_.vertex_busy_cycles.emplace_back());
            }
            busy_entries_ = entries;
            return error;
        }
        case kGates:
            bad_gate_ = SIZE_MAX;
            if (r_.peek() != json::Value::Kind::Array)
                return notArray(key);
            rec_.gates.clear();
            operands_.clear();
            return json::readElements(r_, [&] {
                const size_t index = rec_.gates.size();
                std::string error = readGate(index);
                if (!error.empty())
                    bad_gate_ = index;
                return error;
            });
        case kEvents:
            if (r_.peek() != json::Value::Kind::Array)
                return notArray(key);
            rec_.blocked.clear();
            return json::readElements(
                r_, [&] { return readEvent(rec_.blocked.emplace_back()); });
        case kNumFields:
            break;
        }
        return {};
    }

    /**
     * Gate @p index into rec_.gates and operands_; on an error, its
     * check's place in kGateKeys goes to bad_check_.
     */
    std::string
    readGate(size_t index)
    {
        GateRecord &gate = rec_.gates.emplace_back();
        std::array<double, 2> &operands = operands_.emplace_back();
        json::Member m[kNumGateKeys];
        json::readMembers(r_, kGateKeys, m, [&](size_t i) -> std::string {
            const char *name = kGateKeys[i];
            switch (i) {
            case kIndex: {
                uint64_t g = 0;
                std::string error = readNatural(r_, name, kU64Limit, g);
                if (error.empty() && g != index)
                    error = strformat("recording gate %zu is out of order",
                                      index);
                return error;
            }
            case kKind:
                return readText(r_, name, gate.kind);
            case kQ0:
            case kQ1:
                // Range-checked by checkGates(), once the grid is known.
                operands[i - kQ0] = numberOrNan(r_);
                return {};
            case kReady:
                return readNatural(r_, name, kU64Limit, gate.ready);
            case kDispatched:
                return readNatural(r_, name, kU64Limit, gate.dispatched);
            case kRetired:
                return readNatural(r_, name, kU64Limit, gate.retired);
            case kBlockedAttempts:
                return readNatural(r_, name, kU32Limit,
                                   gate.blocked_attempts);
            default:
                return readStalls(r_, gate.stall);
            }
        });
        for (size_t i = 0; i < kNumGateKeys; ++i) {
            if (!m[i].seen && i >= kReady && i <= kRetired)
                continue;
            if (std::string error = firstError(m[i], kGateKeys[i]);
                !error.empty()) {
                bad_check_ = i;
                return error;
            }
        }
        return {};
    }

    std::string
    readEvent(BlockedEvent &ev)
    {
        static constexpr const char *kKeys[] = {"gate", "cycle", "cause"};
        json::Member m[std::size(kKeys)];
        std::string cause;
        json::readMembers(r_, kKeys, m, [&](size_t i) {
            if (i == 2)
                return readText(r_, kKeys[i], cause);
            return readNatural(r_, kKeys[i], kU64Limit,
                               i == 0 ? ev.gate : ev.cycle);
        });
        for (size_t i = 0; i < std::size(kKeys); ++i)
            if (std::string error = firstError(m[i], kKeys[i]);
                !error.empty())
                return error;
        for (size_t c = 0; c < kNumStallCauses; ++c)
            if (cause == kCauseNames[c]) {
                ev.cause = static_cast<StallCause>(c);
                return {};
            }
        return strformat("recording has unknown stall cause \"%s\"",
                         cause.c_str());
    }

    /** vertex_busy_cycles: not an array, then its length, then its entries. */
    void
    checkBusy(const std::string &error)
    {
        if (!busy_entries_)
            throw UserError(error);
        if (*busy_entries_ != vertices())
            fatal("recording field \"vertex_busy_cycles\" has %zu "
                  "entries for grid_rows x grid_cols %dx%d",
                  *busy_entries_, rec_.grid_rows, rec_.grid_cols);
        if (!error.empty())
            throw UserError(error);
    }

    /**
     * gates: not an array, then gate by gate, with each operand's
     * range check in its place before bad_gate_'s error.
     */
    void
    checkGates(const std::string &error)
    {
        if (!error.empty() && bad_gate_ == SIZE_MAX)
            throw UserError(error);
        const double limit =
            std::min(static_cast<double>(vertices()), kIntLimit);
        for (size_t g = 0; g < operands_.size(); ++g) {
            int32_t *const q[2] = {&rec_.gates[g].q0, &rec_.gates[g].q1};
            for (size_t k = 0; k < 2; ++k) {
                if (g == bad_gate_ && kQ0 + k >= bad_check_)
                    throw UserError(error);
                *q[k] = operand(operands_[g][k],
                                kGateKeys[kQ0 + k], limit);
            }
        }
        if (!error.empty())
            throw UserError(error);
    }
};

} // namespace

const char *
stallCauseName(StallCause cause)
{
    const auto c = static_cast<size_t>(cause);
    return c < kNumStallCauses ? kCauseNames[c] : "unknown";
}

std::string
FlightRecording::toJson() const
{
    std::string out;
    out.reserve(256 + gates.size() * 160 + blocked.size() * 48 +
                vertex_busy_cycles.size() * 8);
    json::Writer w(out, json::Writer::Layout::Document);
    const auto stalls = [&w](const uint64_t *by_cause) {
        w.beginObject();
        for (size_t c = 0; c < kNumStallCauses; ++c)
            w.key(stallCauseName(static_cast<StallCause>(c)))
                .value(by_cause[c]);
        w.end();
    };
    w.beginObject();
    w.key("format").value("autobraid-recording");
    w.key("version").value(1);
    w.key("circuit").value(circuit);
    w.key("policy").value(policy);
    w.key("backend").value(backend);
    w.key("grid_rows").value(grid_rows);
    w.key("grid_cols").value(grid_cols);
    w.key("makespan").value(makespan);
    w.key("stall_totals");
    stalls(stall_totals);

    w.key("gates").beginRows();
    for (size_t g = 0; g < gates.size(); ++g) {
        const GateRecord &rec = gates[g];
        w.beginObject().key("gate").value(g).key("kind").value(rec.kind);
        w.key("q0").value(rec.q0).key("q1").value(rec.q1);
        if (rec.ready != kNoCycle)
            w.key("ready").value(rec.ready);
        if (rec.dispatched != kNoCycle)
            w.key("dispatched").value(rec.dispatched);
        if (rec.retired != kNoCycle)
            w.key("retired").value(rec.retired);
        w.key("blocked_attempts").value(rec.blocked_attempts);
        w.key("stall");
        stalls(rec.stall);
        w.end();
    }
    w.end();

    w.key("blocked_events").beginRows();
    for (const BlockedEvent &ev : blocked)
        w.beginObject()
            .key("gate").value(ev.gate)
            .key("cycle").value(ev.cycle)
            .key("cause").value(stallCauseName(ev.cause))
            .end();
    w.end();

    w.key("vertex_busy_cycles").beginArray();
    for (uint64_t busy : vertex_busy_cycles)
        w.value(busy);
    w.end().end();
    return out;
}

FlightRecording
decodeRecording(std::string_view text)
{
    return RecordingReader(text).decode();
}

} // namespace telemetry
} // namespace autobraid

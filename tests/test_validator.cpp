/**
 * @file
 * Tests for the library schedule validator, the in-memory front end of
 * the certifier: it must accept every legal schedule the schedulers
 * produce and reject corrupted traces — duplicated gates, missing
 * gates, wrong durations, dependence violations, vertex collisions,
 * and malformed paths.
 */

#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "sched/validator.hpp"

namespace autobraid {
namespace {

TEST(Validator, AcceptsLegalSchedules)
{
    for (const char *spec : {"qft:9", "im:12:2", "grover:4",
                             "adder:3", "qpe:6:3"}) {
        const Circuit circuit = gen::make(spec);
        CompileOptions opt;
        opt.record_trace = true;
        const auto report = compileCircuit(circuit, opt);
        const Grid grid = Grid::forQubits(circuit.numQubits());
        const auto validation = validateSchedule(
            circuit, report.result, opt.cost, &grid);
        EXPECT_TRUE(validation.ok)
            << spec << ": " << validation.toString();
    }
}

TEST(Validator, RejectsMissingTrace)
{
    const Circuit circuit = gen::make("ghz:4");
    CompileOptions opt; // no trace
    const auto report = compileCircuit(circuit, opt);
    CostModel cost;
    const auto v = validateSchedule(circuit, report.result, cost);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.toString().find("record_trace"), std::string::npos);
}

TEST(Validator, RejectsInvalidResult)
{
    const Circuit circuit = gen::make("ghz:4");
    ScheduleResult result;
    result.valid = false;
    CostModel cost;
    EXPECT_FALSE(validateSchedule(circuit, result, cost).ok);
}

class ValidatorCorruption : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        circuit_ = std::make_unique<Circuit>(gen::make("qft:6"));
        CompileOptions opt;
        opt.policy = SchedulerPolicy::AutobraidSP;
        opt.record_trace = true;
        report_ = compileCircuit(*circuit_, opt);
        cost_ = opt.cost;
        ASSERT_TRUE(validateSchedule(*circuit_, report_.result, cost_)
                        .ok);
    }

    std::unique_ptr<Circuit> circuit_;
    CompileReport report_;
    CostModel cost_;
};

TEST_F(ValidatorCorruption, DetectsDuplicatedGate)
{
    ScheduleResult bad = report_.result;
    bad.trace.push_back(bad.trace.front());
    EXPECT_FALSE(validateSchedule(*circuit_, bad, cost_).ok);
}

TEST_F(ValidatorCorruption, DetectsMissingGate)
{
    ScheduleResult bad = report_.result;
    bad.trace.pop_back();
    EXPECT_FALSE(validateSchedule(*circuit_, bad, cost_).ok);
}

TEST_F(ValidatorCorruption, DetectsWrongDuration)
{
    ScheduleResult bad = report_.result;
    bad.trace.front().finish += 5;
    const auto v = validateSchedule(*circuit_, bad, cost_);
    EXPECT_FALSE(v.ok);
}

TEST_F(ValidatorCorruption, DetectsDependenceViolation)
{
    ScheduleResult bad = report_.result;
    // Move the last-finishing gate to start at 0 — it must race one of
    // its predecessors.
    size_t last = 0;
    for (size_t i = 0; i < bad.trace.size(); ++i)
        if (bad.trace[i].gate != kNoGate &&
            bad.trace[i].finish > bad.trace[last].finish)
            last = i;
    TraceEntry &e = bad.trace[last];
    const Cycles dur = e.finish - e.start;
    e.start = 0;
    e.finish = dur;
    EXPECT_FALSE(validateSchedule(*circuit_, bad, cost_).ok);
}

TEST_F(ValidatorCorruption, DetectsVertexCollision)
{
    ScheduleResult bad = report_.result;
    // Find two temporally overlapping braids and alias their paths.
    ssize_t first = -1, second = -1;
    for (size_t i = 0; i < bad.trace.size() && second < 0; ++i) {
        if (bad.trace[i].path.empty())
            continue;
        for (size_t j = i + 1; j < bad.trace.size(); ++j) {
            if (bad.trace[j].path.empty())
                continue;
            const auto &a = bad.trace[i];
            const auto &b = bad.trace[j];
            if (a.start < b.finish && b.start < a.finish) {
                first = static_cast<ssize_t>(i);
                second = static_cast<ssize_t>(j);
                break;
            }
        }
    }
    ASSERT_GE(first, 0) << "need two overlapping braids";
    bad.trace[static_cast<size_t>(second)].path =
        bad.trace[static_cast<size_t>(first)].path;
    EXPECT_FALSE(validateSchedule(*circuit_, bad, cost_).ok);
}

TEST_F(ValidatorCorruption, DetectsBrokenPathGeometry)
{
    ScheduleResult bad = report_.result;
    const Grid grid = Grid::forQubits(circuit_->numQubits());
    for (TraceEntry &e : bad.trace) {
        if (e.path.length() >= 2) {
            std::swap(e.path.vertices.front(),
                      e.path.vertices.back());
            // Make it definitely non-adjacent.
            e.path.vertices.front() = 0;
            e.path.vertices.back() = grid.numVertices() - 1;
            break;
        }
    }
    const auto v =
        validateSchedule(*circuit_, bad, cost_, &grid);
    EXPECT_FALSE(v.ok);
}

TEST_F(ValidatorCorruption, DetectsInvertedTimeWindow)
{
    // Regression: finish < start used to wrap the uint64 subtraction
    // into a huge bogus "duration" message instead of naming the real
    // defect. The ordering check must fire and the duration check must
    // not report a wrapped value.
    ScheduleResult bad = report_.result;
    for (TraceEntry &e : bad.trace) {
        if (e.gate != kNoGate && e.finish > e.start) {
            std::swap(e.start, e.finish);
            break;
        }
    }
    const auto v = validateSchedule(*circuit_, bad, cost_);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.toString().find("precedes start"), std::string::npos)
        << v.toString();
    EXPECT_EQ(v.toString().find("duration 18446744073709"),
              std::string::npos)
        << "wrapped subtraction leaked: " << v.toString();
}

TEST_F(ValidatorCorruption, DetectsMakespanMismatch)
{
    ScheduleResult bad = report_.result;
    bad.makespan += 7; // no gate actually finishes there
    const auto v = validateSchedule(*circuit_, bad, cost_);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.toString().find("makespan"), std::string::npos);
}

TEST_F(ValidatorCorruption, DetectsBraidCountMismatch)
{
    ScheduleResult bad = report_.result;
    bad.braids_routed += 1;
    const auto v = validateSchedule(*circuit_, bad, cost_);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.toString().find("braid entries"), std::string::npos);
}

TEST_F(ValidatorCorruption, MaxErrorsCapsOutputWithSummary)
{
    ScheduleResult bad = report_.result;
    ASSERT_GT(bad.trace.size(), 64u);
    for (TraceEntry &e : bad.trace)
        e.finish += 1; // every gate now has a wrong duration
    const auto v = validateSchedule(*circuit_, bad, cost_);
    EXPECT_FALSE(v.ok);
    // Overflow failures never vanish silently: the certifier keeps 64
    // violations plus one "truncated" entry naming the suppressed
    // count.
    ASSERT_EQ(v.errors.size(), 65u) << v.toString();
    EXPECT_EQ(v.errors.back().rfind("truncated: ", 0), 0u)
        << v.errors.back();
    EXPECT_NE(v.errors.back().find("suppressed"), std::string::npos);
    EXPECT_NE(v.errors.back().find("additional violations"),
              std::string::npos);
}

TEST(Validator, SwapAccounting)
{
    // A schedule with layout swaps validates (swap entries counted).
    const Circuit circuit = gen::make("qft:16");
    CompileOptions opt;
    opt.policy = SchedulerPolicy::AutobraidFull;
    opt.record_trace = true;
    opt.best_of_p0 = false;
    opt.p_threshold = 0.9; // trigger aggressively
    const auto report = compileCircuit(circuit, opt);
    const auto v =
        validateSchedule(circuit, report.result, opt.cost);
    EXPECT_TRUE(v.ok) << v.toString();
}

} // namespace
} // namespace autobraid

/**
 * @file
 * JSON well-formedness tests: a minimal independent JSON parser
 * validates every document the viz module emits (reports with and
 * without traces, across policies and modes), so downstream tooling
 * can rely on the output being syntactically correct.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>

#include "compiler/batch.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "viz/json.hpp"

namespace autobraid {
namespace {

/** Tiny recursive-descent JSON syntax checker (no value semantics). */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    const std::string &text_;
    size_t pos_ = 0;

    char peek() const { return pos_ < text_.size() ? text_[pos_] : 0; }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    literal(const char *word)
    {
        for (const char *c = word; *c; ++c)
            if (!consume(*c))
                return false;
        return true;
    }

    bool
    object()
    {
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            if (!value())
                return false;
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    array()
    {
        if (!consume('['))
            return false;
        skipWs();
        if (consume(']'))
            return true;
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    string()
    {
        if (!consume('"'))
            return false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                const char esc = text_[pos_++];
                if (esc == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_])))
                            return false;
                        ++pos_;
                    }
                } else if (!strchr("\"\\/bfnrt", esc)) {
                    return false;
                }
            }
        }
        return false;
    }

    bool
    number()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (consume('.'))
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }
};

TEST(JsonWellformed, CheckerSanity)
{
    EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e4],"b":"x\n"})")
                    .valid());
    EXPECT_TRUE(JsonChecker("[]").valid());
    EXPECT_FALSE(JsonChecker("{").valid());
    EXPECT_FALSE(JsonChecker(R"({"a":})").valid());
    EXPECT_FALSE(JsonChecker(R"("unterminated)").valid());
    EXPECT_FALSE(JsonChecker("[1,2,]trailing").valid());
}

class JsonEmission : public testing::TestWithParam<const char *>
{};

TEST_P(JsonEmission, ReportsAreValidJson)
{
    const Circuit circuit = gen::make(GetParam());
    for (auto policy : {SchedulerPolicy::Baseline,
                        SchedulerPolicy::AutobraidFull}) {
        CompileOptions opt;
        opt.policy = policy;
        opt.record_trace = true;
        const auto report = compileCircuit(circuit, opt);
        const std::string with_trace =
            viz::reportToJson(report, opt.cost, true);
        const std::string without =
            viz::reportToJson(report, opt.cost, false);
        EXPECT_TRUE(JsonChecker(with_trace).valid()) << GetParam();
        EXPECT_TRUE(JsonChecker(without).valid()) << GetParam();
        EXPECT_TRUE(
            JsonChecker(viz::traceToJson(report.result)).valid());
    }
}

INSTANTIATE_TEST_SUITE_P(Specs, JsonEmission,
                         testing::Values("qft:9", "im:9:2",
                                         "grover:4", "ghz:8"));

TEST(JsonWellformed, HostileCircuitName)
{
    Circuit c(2, "we\"ird\\name\nwith\tjunk");
    c.cx(0, 1);
    CompileOptions opt;
    const auto report = compileCircuit(c, opt);
    const std::string json =
        viz::reportToJson(report, opt.cost, false);
    EXPECT_TRUE(JsonChecker(json).valid());
}

TEST(JsonWellformed, ChromeTraceIsValidJson)
{
    const Circuit circuit = gen::make("qft:9");
    CompileOptions opt;
    opt.record_trace = true;
    opt.telemetry.enabled = true;
    const auto report = compileCircuit(circuit, opt);
    const std::string json =
        telemetry::chromeTraceJson(report, opt.cost);
    EXPECT_TRUE(JsonChecker(json).valid());
    // Both processes must be present for Perfetto to show tracks.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("compiler (wall clock)"), std::string::npos);
    EXPECT_NE(json.find("schedule (simulated)"), std::string::npos);
}

TEST(JsonWellformed, ChromeTraceWithoutTelemetryStillValid)
{
    // Telemetry off: the exporter synthesizes a pass-timing track.
    const Circuit circuit = gen::make("ghz:8");
    CompileOptions opt;
    opt.record_trace = true;
    const auto report = compileCircuit(circuit, opt);
    const std::string json =
        telemetry::chromeTraceJson(report, opt.cost);
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("\"cat\":\"pass\""), std::string::npos);
}

TEST(JsonWellformed, ChromeTraceSurgeryBackendValid)
{
    // The exporter must stay well-formed when the schedule comes from
    // the lattice-surgery backend (merge regions, no braid paths).
    const Circuit circuit = gen::make("im:9:2");
    CompileOptions opt;
    opt.backend = SchedulerBackend::LatticeSurgery;
    opt.record_trace = true;
    opt.telemetry.enabled = true;
    const auto report = compileCircuit(circuit, opt);
    const std::string json =
        telemetry::chromeTraceJson(report, opt.cost);
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("schedule (simulated)"), std::string::npos);
}

TEST(JsonWellformed, ChromeTraceValidUnderBatchThreads)
{
    // Spans recorded on 8 worker threads must still serialize into a
    // syntactically valid trace for every job.
    BatchOptions bopt;
    bopt.threads = 8;
    BatchCompiler batch(bopt);
    for (const char *spec : {"qft:9", "ghz:8", "im:9:2", "qft:10"}) {
        CompileOptions opt;
        opt.record_trace = true;
        opt.telemetry.enabled = true;
        batch.addSpec(spec, opt);
    }
    const CostModel cost; // every job compiled with the default model
    for (const BatchResult &r : batch.compileAll()) {
        ASSERT_TRUE(r.ok) << r.error;
        const std::string json =
            telemetry::chromeTraceJson(r.report, cost);
        EXPECT_TRUE(JsonChecker(json).valid()) << r.label;
    }
}

TEST(JsonWellformed, FlightRecordingJson)
{
    const Circuit circuit = gen::make("qft:9");
    for (auto backend : {SchedulerBackend::Braiding,
                         SchedulerBackend::LatticeSurgery}) {
        CompileOptions opt;
        opt.backend = backend;
        opt.record_lifecycle = true;
        const auto report = compileCircuit(circuit, opt);
        ASSERT_NE(report.result.recording, nullptr);
        EXPECT_TRUE(
            JsonChecker(report.result.recording->toJson()).valid());
    }
}

TEST(JsonWellformed, MetricsRegistryJson)
{
    const Circuit circuit = gen::make("im:9:2");
    CompileOptions opt;
    opt.telemetry.enabled = true;
    const auto report = compileCircuit(circuit, opt);
    ASSERT_NE(report.telemetry, nullptr);
    const std::string json = report.telemetry->metrics().toJson();
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_TRUE(JsonChecker(telemetry::MetricsRegistry().toJson())
                    .valid());
}

} // namespace
} // namespace autobraid

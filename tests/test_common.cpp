/**
 * @file
 * Unit tests for the common utilities: error types, RNG, statistics
 * accumulators, text helpers, and the hardened JSON parser (nesting
 * cap, surrogate pairs, overflow rejection, error locations).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"

namespace autobraid {
namespace {

TEST(Error, FatalThrowsUserError)
{
    EXPECT_THROW(fatal("bad input %d", 42), UserError);
    try {
        fatal("bad input %d", 42);
    } catch (const UserError &e) {
        EXPECT_STREQ(e.what(), "bad input 42");
    }
}

TEST(Error, PanicThrowsInternalError)
{
    EXPECT_THROW(panic("invariant %s", "broken"), InternalError);
}

TEST(Error, UserErrorIsNotInternalError)
{
    try {
        fatal("x");
        FAIL() << "fatal did not throw";
    } catch (const InternalError &) {
        FAIL() << "fatal threw InternalError";
    } catch (const UserError &) {
        SUCCEED();
    }
}

TEST(Error, RequirePassesOnTrue)
{
    EXPECT_NO_THROW(require(true, "fine"));
    EXPECT_THROW(require(false, "broken"), InternalError);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.intIn(0, 1000), b.intIn(0, 1000));
}

TEST(Rng, IntInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.intIn(-5, 7);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, IntInCoversRange)
{
    Rng rng(2);
    std::set<int> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.intIn(0, 4));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, IndexRejectsEmpty)
{
    Rng rng(3);
    EXPECT_THROW(rng.index(0), InternalError);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(5);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(6);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Text, Strformat)
{
    EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strformat("%.2f", 1.005), "1.00");
    EXPECT_EQ(strformat("empty"), "empty");
}

TEST(Text, Trim)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim("\t\nx\r "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Text, Split)
{
    EXPECT_EQ(split("a:b:c", ':'),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("::a::", ':'), (std::vector<std::string>{"a"}));
    EXPECT_TRUE(split("", ':').empty());
}

TEST(Text, StartsWith)
{
    EXPECT_TRUE(startsWith("qft:100", "qft"));
    EXPECT_FALSE(startsWith("qf", "qft"));
    EXPECT_TRUE(startsWith("anything", ""));
}

TEST(Text, HumanQuantityPaperStyle)
{
    EXPECT_EQ(humanQuantity(950), "950");
    EXPECT_EQ(humanQuantity(1280), "1.28K");
    EXPECT_EQ(humanQuantity(19200), "19.2K");
    EXPECT_EQ(humanQuantity(149000), "149K");
    EXPECT_EQ(humanQuantity(3630000), "3.63M");
    EXPECT_EQ(humanQuantity(70.4e6), "70.4M");
    EXPECT_EQ(humanQuantity(2.5e9), "2.5G");
    EXPECT_EQ(humanQuantity(-1280), "-1.28K");
    EXPECT_EQ(humanQuantity(0), "0");
}

TEST(Text, ReadTextFileReadsFilesAndRejectsDirectories)
{
    const std::string path =
        testing::TempDir() + "autobraid_read_text_file.txt";
    std::string content;
    for (int i = 0; content.size() < 200000; ++i)
        content += strformat("line %d\n", i);
    writeTextFile(path, content);
    EXPECT_EQ(readTextFile(path), content);
    std::remove(path.c_str());

    // A directory opens like a file but fails at the first read; its
    // end offset is no size to reserve.
    const std::string dir = testing::TempDir();
    try {
        readTextFile(dir);
        ADD_FAILURE() << "read directory " << dir << " without error";
    } catch (const UserError &e) {
        EXPECT_EQ(std::string(e.what()), "read error on '" + dir + "'");
    }
}

// --------------------------------------------------------------------
// Hardened JSON parser (src/common/json): hostile inputs the certifier
// and the inspect/certify tools must survive.
// --------------------------------------------------------------------

TEST(Json, NestingCapAt64)
{
    std::string ok(64, '[');
    ok += std::string(64, ']');
    EXPECT_NO_THROW(json::parse(ok));

    std::string deep(65, '[');
    deep += std::string(65, ']');
    EXPECT_THROW(json::parse(deep), UserError);
}

TEST(Json, LoneSurrogatesRejectedPairsDecode)
{
    EXPECT_THROW(json::parse("\"\\ud800\""), UserError);
    EXPECT_THROW(json::parse("\"\\udc00\""), UserError);
    EXPECT_THROW(json::parse("\"\\ud800x\""), UserError);
    // A valid surrogate pair decodes to one UTF-8 code point
    // (U+1F600).
    EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").asString(),
              "\xF0\x9F\x98\x80");
}

TEST(Json, OverflowingNumberRejected)
{
    EXPECT_THROW(json::parse("1e999"), UserError);
    EXPECT_THROW(json::parse("-1e999"), UserError);
    EXPECT_DOUBLE_EQ(json::parse("1e3").asNumber(), 1000.0);
}

TEST(Json, NumberGrammarIsPinned)
{
    // The reader scans a run of number bytes and lets strtod judge it,
    // so a leading '+', leading zeros, a bare trailing or leading
    // point, and underflow to zero pass; overflow does not.
    EXPECT_EQ(json::parse("+1").asNumber(), 1.0);
    EXPECT_EQ(json::parse("01").asNumber(), 1.0);
    EXPECT_EQ(json::parse("1.").asNumber(), 1.0);
    EXPECT_EQ(json::parse(".5").asNumber(), 0.5);
    EXPECT_TRUE(std::signbit(json::parse("-0").asNumber()));
    EXPECT_EQ(json::parse("1e-400").asNumber(), 0.0);
    EXPECT_THROW(json::parse("-"), UserError);
    EXPECT_THROW(json::parse("1e999"), UserError);
}

TEST(Json, ParseErrorCarriesLineAndColumn)
{
    try {
        json::parse("{\n  \"a\": }");
        FAIL() << "expected UserError";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, TrailingContentRejected)
{
    EXPECT_THROW(json::parse("{} garbage"), UserError);
    EXPECT_THROW(json::parse(""), UserError);
}

// --------------------------------------------------------------------
// JSON writer (src/common/json): the exact bytes of each decision.
// --------------------------------------------------------------------

/** What @p write puts on a fresh writer with @p layout. */
template <typename Write>
std::string
written(Write write,
        json::Writer::Layout layout = json::Writer::Layout::Compact)
{
    std::string out;
    json::Writer w(out, layout);
    write(w);
    return out;
}

TEST(JsonWriter, EscapeTableAndReaderRoundTrip)
{
    EXPECT_EQ(written([](json::Writer &w) {
                  w.value("\"\\\n\r\t\x01\x1f\x7f\xc3\xa9");
              }),
              "\"\\\"\\\\\\n\\r\\t\\u0001\\u001f\x7f\xc3\xa9\"");
    std::string bytes;
    for (int c = 0x01; c <= 0x7f; ++c)
        bytes += static_cast<char>(c);
    const std::string doc =
        written([&](json::Writer &w) { w.value(bytes); });
    EXPECT_EQ(json::parse(doc).asString(), bytes);
}

TEST(JsonWriter, BothLayouts)
{
    const auto doc = [](json::Writer &w) {
        w.beginObject().key("a").beginArray().value(1).beginObject();
        w.end().beginArray().end().raw(R"({"x":[1]})").end();
        w.key("rows").beginRows().beginObject().key("k").null().end();
        w.end().key("none").beginRows().end().end();
    };
    EXPECT_EQ(written(doc),
              R"({"a":[1,{},[],{"x":[1]}],"rows":[{"k":null}],"none":[]})");
    EXPECT_EQ(written(doc, json::Writer::Layout::Document), R"({
  "a": [1, {}, [], {"x":[1]}],
  "rows": [
    {"k": null}
  ],
  "none": [
  ]
}
)");
}

TEST(JsonWriter, Numbers)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(written([&](json::Writer &w) {
                  w.beginArray().value(INT64_MIN).value(UINT64_MAX);
                  w.value(int32_t{-1}).fixed(1.0 / 3, 6);
                  w.fixed(-0.0, 3).fixed(2.5, 0).significant(0.1, 17);
                  w.significant(1e20, 9).significant(-0.0, 9);
                  w.fixed(inf, 3).significant(-inf, 9);
                  w.significant(std::nan(""), 9).end();
              }),
              "[-9223372036854775808,18446744073709551615,-1,0.333333,"
              "-0.000,2,0.10000000000000001,1e+20,-0,0,0,0]");
}

} // namespace
} // namespace autobraid

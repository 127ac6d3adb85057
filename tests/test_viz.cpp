/**
 * @file
 * Tests for the visualization module: ASCII placement/path/activity
 * rendering and the JSON export (structure, escaping, and round-trip
 * sanity of key fields).
 */

#include <gtest/gtest.h>

#include "common/text.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "json_checker.hpp"
#include "route/astar.hpp"
#include "viz/ascii.hpp"
#include "viz/json.hpp"

namespace autobraid {
namespace {

TEST(Ascii, PlacementShowsQubitsAndGaps)
{
    Grid grid(2, 2);
    Placement placement(grid, 3);
    const std::string out = viz::renderPlacement(grid, placement);
    EXPECT_NE(out.find("[  0]"), std::string::npos);
    EXPECT_NE(out.find("[  2]"), std::string::npos);
    EXPECT_NE(out.find("[ ..]"), std::string::npos);
    // Two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Ascii, PathsRenderWithDistinctLabels)
{
    Grid grid(3, 3);
    AStarRouter router(grid);
    const auto free = noBlockedVertices(grid);
    std::vector<Path> paths;
    paths.push_back(*router.route(Cell{0, 0}, Cell{0, 2}, free));
    paths.push_back(*router.route(Cell{2, 0}, Cell{2, 2}, free));
    const std::string out = viz::renderPaths(grid, paths);
    EXPECT_NE(out.find('A'), std::string::npos);
    EXPECT_NE(out.find('B'), std::string::npos);
    EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(Ascii, DeadVerticesRenderAsX)
{
    Grid grid(2, 2);
    DefectMap defects(grid);
    defects.markDead(grid, grid.vid(Vertex{1, 1}));
    const std::string out =
        viz::renderPaths(grid, {}, &defects);
    EXPECT_NE(out.find('X'), std::string::npos);
}

TEST(Ascii, ActivityNeedsTrace)
{
    ScheduleResult empty;
    EXPECT_EQ(viz::renderActivity(empty), "(no trace)\n");
}

TEST(Ascii, ActivityRendersBars)
{
    const Circuit circuit = gen::make("qft:9");
    CompileOptions opt;
    opt.record_trace = true;
    const auto report = compileCircuit(circuit, opt);
    const std::string out = viz::renderActivity(report.result, 40);
    EXPECT_NE(out.find('#'), std::string::npos);
    EXPECT_NE(out.find("peak"), std::string::npos);
}

TEST(Json, Escaping)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape(std::string(1, '\x02')), "\\u0002");
}

TEST(Json, ReportContainsKeyFields)
{
    const Circuit circuit = gen::make("ghz:8");
    CompileOptions opt;
    const auto report = compileCircuit(circuit, opt);
    const std::string json = viz::reportToJson(report, opt.cost);
    for (const char *key :
         {"\"circuit\":\"ghz8\"", "\"policy\":", "\"num_qubits\":8",
          "\"makespan_cycles\":", "\"cp_ratio\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_TRUE(JsonChecker(json).valid());
}

} // namespace
} // namespace autobraid

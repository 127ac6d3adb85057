/**
 * @file
 * Micro-benchmarks (google-benchmark) for the hot kernels: A* routing,
 * interference-graph construction, the stack-based finder on random
 * concurrent layers, LLG computation, DAG construction, the annealer
 * objective, and the JSON readers: certifying a schedule export from
 * its text, decoding a recording, and parsing a serve request.
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "analysis/certify.hpp"
#include "circuit/dag.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "compiler/driver.hpp"
#include "gen/qft.hpp"
#include "gen/registry.hpp"
#include "llg/llg.hpp"
#include "place/annealer.hpp"
#include "place/initial.hpp"
#include "qasm/elaborator.hpp"
#include "qasm/exporter.hpp"
#include "route/greedy_finder.hpp"
#include "route/stack_finder.hpp"
#include "sched/schedule_export.hpp"
#include "telemetry/recorder.hpp"

namespace {

using namespace autobraid;

/** Random disjoint-cell CX tasks on an LxL grid. */
std::vector<CxTask>
randomTasks(const Grid &grid, int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<CellId> cells(static_cast<size_t>(grid.numCells()));
    for (CellId c = 0; c < grid.numCells(); ++c)
        cells[static_cast<size_t>(c)] = c;
    rng.shuffle(cells);
    std::vector<CxTask> tasks;
    for (int i = 0;
         i < count && 2 * i + 1 < static_cast<int>(cells.size()); ++i)
        tasks.push_back(CxTask::make(
            static_cast<GateIdx>(i),
            grid.cell(cells[static_cast<size_t>(2 * i)]),
            grid.cell(cells[static_cast<size_t>(2 * i + 1)])));
    return tasks;
}

void
BM_AStarRoute(benchmark::State &state)
{
    const int side = static_cast<int>(state.range(0));
    Grid grid(side, side);
    AStarRouter router(grid);
    const auto free = noBlockedVertices(grid);
    for (auto _ : state) {
        auto p = router.route(Cell{0, 0}, Cell{side - 1, side - 1},
                              free);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_AStarRoute)->Arg(10)->Arg(23)->Arg(45);

void
BM_StackFinderLayer(benchmark::State &state)
{
    const int side = 16;
    Grid grid(side, side);
    const auto tasks = randomTasks(
        grid, static_cast<int>(state.range(0)), 42);
    StackPathFinder finder(grid);
    const auto free = noBlockedVertices(grid);
    for (auto _ : state) {
        auto outcome = finder.findPaths(tasks, free);
        benchmark::DoNotOptimize(outcome);
    }
}
BENCHMARK(BM_StackFinderLayer)->Arg(8)->Arg(32)->Arg(96);

void
BM_GreedyFinderLayer(benchmark::State &state)
{
    const int side = 16;
    Grid grid(side, side);
    const auto tasks = randomTasks(
        grid, static_cast<int>(state.range(0)), 42);
    GreedyPathFinder finder(grid, GreedyOrder::Distance);
    const auto free = noBlockedVertices(grid);
    for (auto _ : state) {
        auto outcome = finder.findPaths(tasks, free);
        benchmark::DoNotOptimize(outcome);
    }
}
BENCHMARK(BM_GreedyFinderLayer)->Arg(8)->Arg(32)->Arg(96);

/**
 * Random CX tasks that may share operand cells (a != b per task), so
 * layers denser than numCells/2 — the regime where routing cost
 * dominates batch compiles — can be generated on small grids.
 */
std::vector<CxTask>
randomDenseTasks(const Grid &grid, int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<CxTask> tasks;
    tasks.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        const CellId a =
            static_cast<CellId>(rng.intIn(0, grid.numCells() - 1));
        CellId b = a;
        while (b == a)
            b = static_cast<CellId>(
                rng.intIn(0, grid.numCells() - 1));
        tasks.push_back(CxTask::make(static_cast<GateIdx>(i),
                                     grid.cell(a), grid.cell(b)));
    }
    return tasks;
}

void
BM_RoutingStage(benchmark::State &state)
{
    // The scheduler's per-instant routing stage on the paper's 20x20
    // lattice: the stack finder routes N concurrent tasks against the
    // blocked mask of an idle, defect-free lattice.
    Grid grid(20, 20);
    const auto tasks = randomDenseTasks(
        grid, static_cast<int>(state.range(0)), 42);
    StackPathFinder finder(grid);
    const auto free = noBlockedVertices(grid);
    for (auto _ : state) {
        auto outcome = finder.findPaths(tasks, free);
        benchmark::DoNotOptimize(outcome);
    }
}
BENCHMARK(BM_RoutingStage)->Arg(64)->Arg(256)->Arg(1000);

/**
 * Random short-range CX tasks: each pair spans at most @p radius cells,
 * so a large lattice carries many independent interference components —
 * the regime component-parallel routing targets.
 */
std::vector<CxTask>
randomLocalTasks(const Grid &grid, int count, int radius,
                 uint64_t seed)
{
    Rng rng(seed);
    std::vector<CxTask> tasks;
    tasks.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        const Cell a{rng.intIn(0, grid.rows() - 1),
                     rng.intIn(0, grid.cols() - 1)};
        Cell b = a;
        while (b == a)
            b = Cell{
                std::clamp(a.r + rng.intIn(-radius, radius), 0,
                           grid.rows() - 1),
                std::clamp(a.c + rng.intIn(-radius, radius), 0,
                           grid.cols() - 1)};
        tasks.push_back(
            CxTask::make(static_cast<GateIdx>(i), a, b));
    }
    return tasks;
}

void
BM_RoutingStageWide(benchmark::State &state)
{
    // The routing stage on a 100x100 lattice (10k tiles) with
    // short-range traffic: many small interference components.
    // Arg 0 = concurrent tasks, arg 1 = route_jobs worker threads
    // (schedules are byte-identical across worker counts; only the
    // wall clock moves).
    Grid grid(100, 100);
    const auto tasks = randomLocalTasks(
        grid, static_cast<int>(state.range(0)), 3, 42);
    StackPathFinder finder(grid, static_cast<int>(state.range(1)));
    const auto free = noBlockedVertices(grid);
    for (auto _ : state) {
        auto outcome = finder.findPaths(tasks, free);
        benchmark::DoNotOptimize(outcome);
    }
}
BENCHMARK(BM_RoutingStageWide)
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({1000, 1})
    ->Args({1000, 8});

void
BM_ComputeLlgs(benchmark::State &state)
{
    Grid grid(32, 32);
    const auto tasks = randomTasks(
        grid, static_cast<int>(state.range(0)), 7);
    for (auto _ : state) {
        auto llgs = computeLlgs(tasks);
        benchmark::DoNotOptimize(llgs);
    }
}
BENCHMARK(BM_ComputeLlgs)->Arg(16)->Arg(64)->Arg(256);

void
BM_InterferenceGraphBuild(benchmark::State &state)
{
    Grid grid(32, 32);
    const auto tasks = randomTasks(
        grid, static_cast<int>(state.range(0)), 7);
    for (auto _ : state) {
        InterferenceGraph ig(tasks);
        benchmark::DoNotOptimize(ig);
    }
}
BENCHMARK(BM_InterferenceGraphBuild)->Arg(64)->Arg(256);

void
BM_InterferencePeel(benchmark::State &state)
{
    // The stack finder's peel loop in isolation: remove the peelPick()
    // victim until the residue has degree <= 2. Buckets in remove()
    // make this near-linear; the old full-rescan version was quadratic
    // on dense layers (see docs/benchmarks.md).
    Grid grid(64, 64);
    const auto tasks = randomTasks(
        grid, static_cast<int>(state.range(0)), 7);
    const InterferenceGraph base(tasks);
    for (auto _ : state) {
        // Copying a pre-built graph outside the timed region isolates
        // the peel from both the O(n^2) bbox construction (covered by
        // BM_InterferenceGraphBuild) and the O(E) copy itself.
        state.PauseTiming();
        InterferenceGraph ig = base;
        state.ResumeTiming();
        while (ig.maxDegree() > 2)
            ig.remove(ig.peelPick(tasks));
        benchmark::DoNotOptimize(ig);
    }
}
BENCHMARK(BM_InterferencePeel)->Arg(64)->Arg(256)->Arg(1000);

void
BM_DagBuild(benchmark::State &state)
{
    const Circuit circuit =
        gen::makeQft(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        Dag dag(circuit);
        benchmark::DoNotOptimize(dag);
    }
}
BENCHMARK(BM_DagBuild)->Arg(32)->Arg(100);

void
BM_LlgObjective(benchmark::State &state)
{
    const Circuit circuit =
        gen::makeQft(static_cast<int>(state.range(0)));
    Grid grid = Grid::forQubits(circuit.numQubits());
    Placement placement(grid, circuit.numQubits());
    for (auto _ : state) {
        long obj = llgObjective(circuit, placement, 16);
        benchmark::DoNotOptimize(obj);
    }
}
BENCHMARK(BM_LlgObjective)->Arg(16)->Arg(50);

void
BM_AnnealPlacement(benchmark::State &state, const char *spec)
{
    // One full stage-2 anneal from the identity layout: each proposal
    // re-scores its affected sets through the LLG merge kernel.
    const Circuit circuit = gen::make(spec);
    const Grid grid = Grid::forQubits(circuit.numQubits());
    for (auto _ : state) {
        Rng rng(1);
        Placement placement = annealPlacement(
            circuit, Placement(grid, circuit.numQubits()), rng);
        benchmark::DoNotOptimize(placement);
    }
}
BENCHMARK_CAPTURE(BM_AnnealPlacement, qft32, "qft:32")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AnnealPlacement, qaoa32, "qaoa:32")
    ->Unit(benchmark::kMillisecond);

void
BM_CertifyScheduleText(benchmark::State &state)
{
    // What --schedule-out writes for a qft:64 braiding compile, with
    // its initial placement embedded, decoded and certified whole.
    const Circuit circuit = gen::make("qft:64");
    const Grid grid = Grid::forQubits(circuit.numQubits());
    CompileOptions opt;
    opt.record_trace = true;
    const CompileReport report = compileCircuit(circuit, opt);
    Rng rng(opt.seed);
    const Placement initial = initialPlacement(
        circuit, grid, rng, opt.placementFor(opt.policy));
    const std::string text = scheduleToJson(
        scheduleExportInfo(circuit, grid, opt, report, &initial),
        report.result);
    for (auto _ : state) {
        certify::Certificate cert = certify::certifyScheduleText(text);
        benchmark::DoNotOptimize(cert);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_CertifyScheduleText)->Unit(benchmark::kMillisecond);

void
BM_DecodeRecording(benchmark::State &state)
{
    // A qft:32 braiding compile's flight recording, as --record-out
    // writes it.
    CompileOptions opt;
    opt.record_trace = true;
    opt.record_lifecycle = true;
    const CompileReport report = compileCircuit(gen::make("qft:32"), opt);
    const std::string text = report.result.recording->toJson();
    for (auto _ : state) {
        telemetry::FlightRecording rec = telemetry::decodeRecording(text);
        benchmark::DoNotOptimize(rec);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_DecodeRecording)->Unit(benchmark::kMillisecond);

void
BM_JsonParseRequest(benchmark::State &state)
{
    // One serve request with inline QASM, the kind a cache hit parses.
    const std::string request =
        "{\"qasm\":\"" + jsonEscape(qasm::toQasm(gen::make("qft:8"))) +
        "\",\"options\":{\"seed\":7}}";
    for (auto _ : state) {
        json::Value doc = json::parse(request);
        benchmark::DoNotOptimize(doc);
    }
}
BENCHMARK(BM_JsonParseRequest);

void
BM_QasmParseToCircuit(benchmark::State &state, const char *spec)
{
    // The CLI user's set-up and perfbench's setup_s: QASM text lexed,
    // parsed and elaborated into a circuit. The text is the export of
    // a generator circuit, made here rather than committed.
    const std::string text = qasm::toQasm(gen::make(spec));
    for (auto _ : state) {
        Circuit circuit = qasm::parseToCircuit(text, spec);
        benchmark::DoNotOptimize(circuit);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(text.size()));
}
BENCHMARK_CAPTURE(BM_QasmParseToCircuit, qft160, "qft:160")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_QasmParseToCircuit, im4000, "im:4000:2")
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

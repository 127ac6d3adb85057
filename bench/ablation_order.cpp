/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out:
 *
 *  1. Path-search order: the stack finder vs greedy orders (distance /
 *   program / largest-first) — routed fraction on random congested
 *   layers (the paper's Fig. 8 argument, measured).
 *  2. Endpoint flexibility: all 16 corner configurations vs
 *   defect-to-defect fixed corners (paper Fig. 5).
 *  3. Initial placement stages: identity vs partitioner vs + annealer
 *   (Table 1's mechanism).
 *  4. Dynamic layout: autobraid-sp vs full vs full+Maslov on QFT.
 */

#include "bench_util.hpp"

#include "common/rng.hpp"
#include "place/initial.hpp"
#include "route/greedy_finder.hpp"
#include "route/stack_finder.hpp"

using namespace autobraid;
using namespace autobraid::bench;

namespace {

std::vector<CxTask>
randomLayer(const Grid &grid, int count, Rng &rng)
{
    std::vector<CellId> cells(static_cast<size_t>(grid.numCells()));
    for (CellId c = 0; c < grid.numCells(); ++c)
        cells[static_cast<size_t>(c)] = c;
    rng.shuffle(cells);
    std::vector<CxTask> tasks;
    for (int i = 0; i < count; ++i)
        tasks.push_back(CxTask::make(
            static_cast<GateIdx>(i),
            grid.cell(cells[static_cast<size_t>(2 * i)]),
            grid.cell(cells[static_cast<size_t>(2 * i + 1)])));
    return tasks;
}

void
orderAblation()
{
    std::printf("-- 1. path-search order: mean routed fraction over "
                "random concurrent layers --\n");
    Table table({"grid", "tasks", "stack", "greedy-dist",
                 "greedy-prog", "greedy-largest"});
    Rng rng(31);
    for (const auto &[side, tasks_n] :
         std::vector<std::pair<int, int>>{{8, 16}, {12, 40},
                                          {16, 80}}) {
        Grid grid(side, side);
        StackPathFinder stack(grid);
        GreedyPathFinder dist(grid, GreedyOrder::Distance, true);
        GreedyPathFinder prog(grid, GreedyOrder::Program, true);
        GreedyPathFinder largest(grid, GreedyOrder::Largest, true);
        PathFinder *finders[4] = {&stack, &dist, &prog, &largest};
        double ratio[4] = {0, 0, 0, 0};
        const int trials = 25;
        const auto free = noBlockedVertices(grid);
        for (int t = 0; t < trials; ++t) {
            const auto layer = randomLayer(grid, tasks_n, rng);
            for (int f = 0; f < 4; ++f)
                ratio[f] += finders[f]->findPaths(layer, free).ratio();
        }
        table.addRow({strformat("%dx%d", side, side),
                      std::to_string(tasks_n),
                      strformat("%.3f", ratio[0] / trials),
                      strformat("%.3f", ratio[1] / trials),
                      strformat("%.3f", ratio[2] / trials),
                      strformat("%.3f", ratio[3] / trials)});
    }
    table.print();
    std::printf("\n");
}

void
cornerAblation()
{
    std::printf("-- 2. endpoint flexibility: 16 corner configs vs "
                "fixed defect-to-defect corners --\n");
    Table table({"grid", "tasks", "all-corners", "fixed-corner"});
    Rng rng(32);
    for (const auto &[side, tasks_n] :
         std::vector<std::pair<int, int>>{{8, 16}, {16, 80}}) {
        Grid grid(side, side);
        GreedyPathFinder all(grid, GreedyOrder::Distance, true);
        GreedyPathFinder fixed(grid, GreedyOrder::Distance, false);
        double r_all = 0, r_fixed = 0;
        const int trials = 25;
        const auto free = noBlockedVertices(grid);
        for (int t = 0; t < trials; ++t) {
            const auto layer = randomLayer(grid, tasks_n, rng);
            r_all += all.findPaths(layer, free).ratio();
            r_fixed += fixed.findPaths(layer, free).ratio();
        }
        table.addRow({strformat("%dx%d", side, side),
                      std::to_string(tasks_n),
                      strformat("%.3f", r_all / trials),
                      strformat("%.3f", r_fixed / trials)});
    }
    table.print();
    std::printf("\n");
}

void
placementAblation()
{
    std::printf("-- 3. initial placement stages (autobraid-sp "
                "makespan, us) --\n");
    Table table(
        {"benchmark", "identity", "partitioner", "+annealer/linear"});
    for (const char *spec : {"qft:36", "im:64:3", "qaoa:64"}) {
        const Circuit circuit = gen::make(spec);
        double us[3] = {0, 0, 0};
        int i = 0;
        for (const auto &[use_part, use_anneal] :
             std::vector<std::pair<bool, bool>>{
                 {false, false}, {true, false}, {true, true}}) {
            CompileOptions opt;
            opt.policy = SchedulerPolicy::AutobraidSP;
            opt.placement.use_partitioner = use_part;
            opt.placement.use_annealer = use_anneal;
            opt.placement.use_linear_special = use_anneal;
            us[i++] = compileCircuit(circuit, opt).micros(opt.cost);
        }
        table.addRow({spec, strformat("%.0f", us[0]),
                      strformat("%.0f", us[1]),
                      strformat("%.0f", us[2])});
    }
    table.print();
    std::printf("\n");
}

void
dynamicAblation()
{
    std::printf("-- 4. dynamic layout machinery on QFT (makespan, us) "
                "--\n");
    Table table({"qubits", "sp", "full(no maslov)", "full(+maslov)",
                 "maslov won?"});
    const bool quick = quickMode();
    for (int n : quick ? std::vector<int>{36, 64}
                       : std::vector<int>{36, 100, 144}) {
        const Circuit circuit =
            gen::make("qft:" + std::to_string(n));
        CompileOptions sp;
        sp.policy = SchedulerPolicy::AutobraidSP;
        CompileOptions no_maslov;
        no_maslov.policy = SchedulerPolicy::AutobraidFull;
        no_maslov.allow_maslov = false;
        CompileOptions full;
        full.policy = SchedulerPolicy::AutobraidFull;
        const auto rs = compileCircuit(circuit, sp);
        const auto rn = compileCircuit(circuit, no_maslov);
        const auto rf = compileCircuit(circuit, full);
        table.addRow({std::to_string(n),
                      strformat("%.0f", rs.micros(sp.cost)),
                      strformat("%.0f", rn.micros(no_maslov.cost)),
                      strformat("%.0f", rf.micros(full.cost)),
                      rf.used_maslov ? "yes" : "no"});
        std::fflush(stdout);
    }
    table.print();
}

void
baselineOrderAblation()
{
    std::printf("-- 5. baseline greedy policy (makespan, us; the "
                "paper's baseline picks the best of its policies) "
                "--\n");
    Table table({"benchmark", "distance", "program", "criticality"});
    for (const char *spec : {"qft:36", "qaoa:64", "im:64:3"}) {
        const Circuit circuit = gen::make(spec);
        std::vector<std::string> row{spec};
        for (GreedyOrder order :
             {GreedyOrder::Distance, GreedyOrder::Program,
              GreedyOrder::Criticality}) {
            CompileOptions opt;
            opt.policy = SchedulerPolicy::Baseline;
            opt.baseline_order = order;
            row.push_back(strformat(
                "%.0f", compileCircuit(circuit, opt)
                            .micros(opt.cost)));
        }
        table.addRow(std::move(row));
    }
    table.print();
}

void
teleportAblation()
{
    std::printf("-- 6. braiding (double-defect) vs teleportation "
                "(planar) communication (makespan, us) --\n");
    std::printf("(teleportation holds a channel for 2 cycles per CX; "
                "planar tiles cost ~2x the physical qubits, the "
                "trade-off the paper's conclusion discusses)\n");
    Table table({"benchmark", "braid+GP", "braid+autobraid",
                 "teleport+GP", "teleport+autobraid",
                 "autobraid braid/teleport"});
    for (const char *spec : {"qft:64", "qaoa:64", "im:64:3"}) {
        const Circuit circuit = gen::make(spec);
        auto run = [&circuit](SchedulerPolicy policy, Cycles hold) {
            CompileOptions opt;
            opt.policy = policy;
            opt.channel_hold_cycles = hold;
            return compileCircuit(circuit, opt).micros(opt.cost);
        };
        const double bg = run(SchedulerPolicy::Baseline, 0);
        const double ba = run(SchedulerPolicy::AutobraidFull, 0);
        const double tg = run(SchedulerPolicy::Baseline, 2);
        const double ta = run(SchedulerPolicy::AutobraidFull, 2);
        table.addRow({spec, strformat("%.0f", bg),
                      strformat("%.0f", ba), strformat("%.0f", tg),
                      strformat("%.0f", ta),
                      strformat("%.2fx", ba / ta)});
        std::fflush(stdout);
    }
    table.print();
    std::printf("Shape check (paper conclusion): with AutoBraid "
                "scheduling, braiding approaches teleportation-level "
                "latency while the double-defect code uses about half "
                "the physical qubits.\n");
}

} // namespace

int
main()
{
    std::printf("== Ablation benches (DESIGN.md design choices) ==\n\n");
    orderAblation();
    cornerAblation();
    placementAblation();
    dynamicAblation();
    std::printf("\n");
    baselineOrderAblation();
    std::printf("\n");
    teleportAblation();
    return 0;
}

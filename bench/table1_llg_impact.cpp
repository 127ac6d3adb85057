/**
 * @file
 * Reproduces paper Table 1: "Impact of LLGs' sizes".
 *
 * For each benchmark, compare the initial layout *without* LLG-aware
 * optimization (partitioner only, the "Before LLG" columns) against the
 * layout *with* it (simulated annealing on the LLG objective plus the
 * max-degree-2 special case, the "After LLG Optimization" columns):
 * number of LLGs with size > 3, encoded execution time under
 * autobraid-sp, and the resulting speedup.
 */

#include "bench_util.hpp"

#include "place/initial.hpp"

using namespace autobraid;
using namespace autobraid::bench;

namespace {

struct Table1Entry
{
    const char *name;
    std::string spec;
    double paper_speedup;
    bool heavy;
};

std::vector<Table1Entry>
entries()
{
    return {
        {"qft16", "qft:16", 1.44, false},
        {"qft50", "qft:50", 2.14, false},
        {"urf2", "revlib:urf2_277", 1.03, false},
        {"IM16", "im:16:3", 1.55, false},
        {"IM10", "im:10:13", 1.41, false},
        {"Shors", "shor:234", 2.09, true},
        {"BTW", "bwt:179", 1.11, false},
        {"Sqrt8", "revlib:sqrt8_260", 1.05, false},
    };
}

} // namespace

int
main()
{
    const bool quick = quickMode();
    std::printf("== Table 1: impact of LLGs' sizes ==\n");
    std::printf("(execution under autobraid-sp; 'before' = partitioner "
                "only, 'after' = + LLG annealing / degree-2 layout)"
                "%s\n\n",
                quick ? " [AB_QUICK subset]" : "");

    Table table({"Benchmark", "#LLG>3 after", "time after(us)",
                 "#LLG>3 before", "time before(us)", "Speedup",
                 "Paper"});

    for (const Table1Entry &e : entries()) {
        if (quick && e.heavy)
            continue;
        const Circuit circuit = gen::make(e.spec);
        const Grid grid = Grid::forQubits(circuit.numQubits());
        Rng rng_a(2021), rng_b(2021);

        InitialPlacementConfig before_cfg;
        before_cfg.use_annealer = false;
        before_cfg.use_linear_special = false;
        before_cfg.leaf_cells = 4; // METIS-style mapping
        InitialPlacementConfig after_cfg; // defaults: everything on

        const Placement before =
            initialPlacement(circuit, grid, rng_a, before_cfg);
        const Placement after =
            initialPlacement(circuit, grid, rng_b, after_cfg);

        const long llg_before = countOversizeLlgs(circuit, before);
        const long llg_after = countOversizeLlgs(circuit, after);

        auto run = [&circuit](const InitialPlacementConfig &cfg) {
            CompileOptions opt;
            opt.policy = SchedulerPolicy::AutobraidSP;
            opt.placement = cfg;
            return compileCircuit(circuit, opt);
        };
        const CompileReport rb = run(before_cfg);
        const CompileReport ra = run(after_cfg);
        const CostModel cost;
        const double t_before = rb.micros(cost);
        const double t_after = ra.micros(cost);

        table.addRow({e.name, std::to_string(llg_after),
                      humanMicros(t_after), std::to_string(llg_before),
                      humanMicros(t_before),
                      strformat("%.2f", t_before / t_after),
                      strformat("%.2f", e.paper_speedup)});
        std::fflush(stdout);
    }
    table.print();
    std::printf("\nShape check: LLG-aware initial layout reduces the "
                "count of size>3 LLGs and the execution time "
                "(paper speedups 1.03x - 2.14x).\n");
    return 0;
}

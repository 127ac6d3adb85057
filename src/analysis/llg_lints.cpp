#include "analysis/llg_lints.hpp"

#include "circuit/layers.hpp"
#include "common/text.hpp"
#include "llg/llg.hpp"

namespace autobraid {
namespace lint {

namespace {

/** Individually reported diagnostics per code; excess aggregates. */
constexpr size_t kMaxReports = 4;
/** Layers larger than this skip the O(n^3) AB302 clique search. */
constexpr size_t kMaxCliqueLayer = 256;

/**
 * Find four pairwise strictly-interfering tasks (a 4-clique in the
 * strict-interference graph). Fills @p out with task indices and
 * returns true on success. Adjacency is precomputed into bitsets; the
 * triangle enumeration then tests common neighbours word-at-a-time.
 */
bool
findInterferenceClique(const std::vector<CxTask> &tasks,
                       std::array<size_t, 4> &out)
{
    const size_t n = tasks.size();
    if (n < 4)
        return false;
    const size_t words = (n + 63) / 64;
    std::vector<uint64_t> adj(n * words, 0);
    auto set = [&adj, words](size_t i, size_t j) {
        adj[i * words + j / 64] |= uint64_t{1} << (j % 64);
    };
    auto get = [&adj, words](size_t i, size_t j) {
        return (adj[i * words + j / 64] >> (j % 64)) & 1;
    };
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            if (strictlyInterferes(tasks[i], tasks[j])) {
                set(i, j);
                set(j, i);
            }
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j) {
            if (!get(i, j))
                continue;
            for (size_t k = j + 1; k < n; ++k) {
                if (!get(i, k) || !get(j, k))
                    continue;
                // Common neighbour of the triangle {i, j, k} above k.
                for (size_t w = k / 64; w < words; ++w) {
                    uint64_t common = adj[i * words + w] &
                                      adj[j * words + w] &
                                      adj[k * words + w];
                    if (w == k / 64)
                        common &= ~((uint64_t{2} << (k % 64)) - 1);
                    if (common) {
                        const size_t bit = static_cast<size_t>(
                            __builtin_ctzll(common));
                        out = {i, j, k, w * 64 + bit};
                        return true;
                    }
                }
            }
        }
    return false;
}

} // namespace

void
lintLlgs(const Circuit &circuit, const Placement &placement,
         DiagnosticEngine &engine)
{
    size_t hard_total = 0;
    size_t clique_layers = 0;
    size_t hard_reported = 0;
    size_t clique_reported = 0;

    const auto layers = concurrentCxSets(circuit);
    for (size_t layer = 0; layer < layers.size(); ++layer) {
        const std::vector<CxTask> tasks =
            placement.tasks(circuit, layers[layer]);
        if (tasks.empty())
            continue;

        for (const Llg &llg : computeLlgs(tasks)) {
            if (llg.size() <= 3 || isStrictlyNested(llg, tasks))
                continue; // Theorem 1 resp. Theorem 2 applies
            ++hard_total;
            if (hard_reported < kMaxReports) {
                ++hard_reported;
                engine.report(
                    "AB301", SourceLoc{},
                    strformat(
                        "layer %zu: LLG of %zu CX gates in box %s is "
                        "oversize (size > 3, Theorem 1 fails) and not "
                        "strictly nested (Theorem 2 fails); in-box "
                        "schedulability is not guaranteed",
                        layer, llg.size(),
                        llg.bbox.toString().c_str()));
            }
        }

        if (tasks.size() <= kMaxCliqueLayer) {
            std::array<size_t, 4> clique;
            if (findInterferenceClique(tasks, clique)) {
                ++clique_layers;
                if (clique_reported < kMaxReports) {
                    ++clique_reported;
                    engine.report(
                        "AB302", SourceLoc{},
                        strformat(
                            "layer %zu: gates #%zu, #%zu, #%zu, #%zu "
                            "pairwise strictly interfere (Theorem 3): "
                            "no schedule can route all four "
                            "concurrently",
                            layer, tasks[clique[0]].gate,
                            tasks[clique[1]].gate,
                            tasks[clique[2]].gate,
                            tasks[clique[3]].gate));
                }
            }
        }
    }

    if (hard_total > hard_reported)
        engine.report("AB301", SourceLoc{},
                      strformat("%zu further oversize non-nested LLGs "
                                "not reported individually",
                                hard_total - hard_reported));
    if (clique_layers > clique_reported)
        engine.report("AB302", SourceLoc{},
                      strformat("%zu further layers with a Theorem 3 "
                                "obstruction not reported individually",
                                clique_layers - clique_reported));
    engine.setMetric("llg_hard_total",
                     static_cast<long>(hard_total));
    engine.setMetric("llg_clique_layers",
                     static_cast<long>(clique_layers));
}

} // namespace lint
} // namespace autobraid

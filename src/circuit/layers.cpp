#include "circuit/layers.hpp"

#include <algorithm>

namespace autobraid {
namespace {

/**
 * The one layering pass. Each gate's unit-latency ASAP depth is one
 * more than the deepest earlier gate on either of its qubits; the
 * layers are the depths that hold a kept gate (every gate, or only
 * braid-requiring ones when @p braids_only), in depth order. At most
 * @p max_sets (0: all) of them are built, evenly sampled by index, and
 * each holds its kept gates in gate order.
 */
std::vector<std::vector<GateIdx>>
gatherLayers(const Circuit &circuit, bool braids_only, size_t max_sets)
{
    std::vector<size_t> qubit_depth(
        static_cast<size_t>(circuit.numQubits()), 0);
    std::vector<size_t> depth(circuit.size());
    std::vector<size_t> kept_at_depth;
    for (GateIdx g = 0; g < circuit.size(); ++g) {
        const Gate &gate = circuit.gate(g);
        size_t d = qubit_depth[static_cast<size_t>(gate.q0)];
        if (gate.q1 != kNoQubit)
            d = std::max(d, qubit_depth[static_cast<size_t>(gate.q1)]);
        depth[g] = d;
        qubit_depth[static_cast<size_t>(gate.q0)] = d + 1;
        if (gate.q1 != kNoQubit)
            qubit_depth[static_cast<size_t>(gate.q1)] = d + 1;
        if (!braids_only || needsBraid(gate.kind)) {
            if (d >= kept_at_depth.size())
                kept_at_depth.resize(d + 1, 0);
            ++kept_at_depth[d];
        }
    }

    std::vector<size_t> layer_depths;
    for (size_t d = 0; d < kept_at_depth.size(); ++d)
        if (kept_at_depth[d] > 0)
            layer_depths.push_back(d);
    const bool all = max_sets == 0 || layer_depths.size() <= max_sets;
    const size_t built = all ? layer_depths.size() : max_sets;
    const double stride = all ? 1.0
                              : static_cast<double>(layer_depths.size()) /
                                    static_cast<double>(max_sets);
    constexpr size_t kDropped = ~size_t{0};
    std::vector<size_t> slot_of_depth(kept_at_depth.size(), kDropped);
    std::vector<std::vector<GateIdx>> layers(built);
    for (size_t i = 0; i < built; ++i) {
        const size_t d = layer_depths[static_cast<size_t>(
            static_cast<double>(i) * stride)];
        slot_of_depth[d] = i;
        layers[i].reserve(kept_at_depth[d]);
    }
    for (GateIdx g = 0; g < circuit.size(); ++g) {
        if (braids_only && !needsBraid(circuit.gate(g).kind))
            continue;
        const size_t slot = slot_of_depth[depth[g]];
        if (slot != kDropped)
            layers[slot].push_back(g);
    }
    return layers;
}

} // namespace

std::vector<std::vector<GateIdx>>
asapLayers(const Circuit &circuit)
{
    return gatherLayers(circuit, false, 0);
}

std::vector<std::vector<GateIdx>>
concurrentCxSets(const Circuit &circuit, size_t max_sets)
{
    return gatherLayers(circuit, true, max_sets);
}

} // namespace autobraid

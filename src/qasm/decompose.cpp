#include "qasm/decompose.hpp"

namespace autobraid {
namespace qasm {

size_t
countKind(const Circuit &circuit, GateKind kind)
{
    size_t n = 0;
    for (const Gate &g : circuit.gates())
        if (g.kind == kind)
            ++n;
    return n;
}

} // namespace qasm
} // namespace autobraid

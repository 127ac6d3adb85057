#include "gen/qft.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/text.hpp"

namespace autobraid {
namespace gen {

Circuit
makeQft(int n, bool reverse_swaps)
{
    if (n < 1)
        fatal("makeQft requires n >= 1, got %d", n);
    Circuit c(n, strformat("qft%d", n));
    for (Qubit i = 0; i < n; ++i) {
        c.h(i);
        for (Qubit j = i + 1; j < n; ++j)
            c.cphase(j, i, std::ldexp(std::numbers::pi, -(j - i)));
    }
    if (reverse_swaps)
        for (Qubit i = 0; i < n / 2; ++i)
            c.swap(i, n - 1 - i);
    return c;
}

Circuit
makeInverseQft(int n)
{
    if (n < 1)
        fatal("makeInverseQft requires n >= 1, got %d", n);
    Circuit c(n, strformat("iqft%d", n));
    for (Qubit i = n - 1; i >= 0; --i) {
        for (Qubit j = n - 1; j > i; --j)
            c.cphase(j, i, -std::ldexp(std::numbers::pi, -(j - i)));
        c.h(i);
    }
    return c;
}

} // namespace gen
} // namespace autobraid

#include "qasm/ast.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/text.hpp"

namespace autobraid {
namespace qasm {

std::string_view
Arena::copy(std::string_view text)
{
    if (text.empty())
        return {};
    char *out = static_cast<char *>(memory_.allocate(text.size(), 1));
    text.copy(out, text.size());
    return {out, text.size()};
}

double
Expr::eval(std::span<const std::string> names,
           std::span<const double> values) const
{
    const auto sub = [&](const Expr *e) { return e->eval(names, values); };
    switch (op) {
      case Op::Const:
        return value;
      case Op::Pi:
        return std::numbers::pi;
      case Op::Param:
        for (size_t i = names.size(); i-- > 0;)
            if (names[i] == param)
                return values[i];
        fatal("qasm: unbound gate parameter '%.*s'",
              static_cast<int>(param.size()), param.data());
      case Op::Neg:
        return -sub(lhs);
      case Op::Sin:
        return std::sin(sub(lhs));
      case Op::Cos:
        return std::cos(sub(lhs));
      case Op::Tan:
        return std::tan(sub(lhs));
      case Op::Exp:
        return std::exp(sub(lhs));
      case Op::Ln:
        return std::log(sub(lhs));
      case Op::Sqrt:
        return std::sqrt(sub(lhs));
      // Operands evaluate in a fixed order, so an expression always
      // raises the same error first: the left operand first, except
      // that '/' and '^' evaluate their right operand first.
      case Op::Add: {
        const double l = sub(lhs);
        return l + sub(rhs);
      }
      case Op::Sub: {
        const double l = sub(lhs);
        return l - sub(rhs);
      }
      case Op::Mul: {
        const double l = sub(lhs);
        return l * sub(rhs);
      }
      case Op::Div: {
        const double d = sub(rhs);
        if (d == 0.0)
            fatal("qasm: division by zero in parameter expression");
        return sub(lhs) / d;
      }
      case Op::Pow: {
        const double exponent = sub(rhs);
        return std::pow(sub(lhs), exponent);
      }
    }
    panic("Expr::eval: unknown op %d", static_cast<int>(op));
}

std::string
Argument::toString() const
{
    if (wholeRegister())
        return std::string(reg);
    return strformat("%.*s[%d]", static_cast<int>(reg.size()), reg.data(),
                     index);
}

int
Program::totalQubits() const
{
    return qregs_.empty() ? 0 : qregs_.back().offset + qregs_.back().size;
}

bool
Program::declare(bool quantum, std::string_view name, int size, int line)
{
    if (registers_.contains(name))
        return false;
    std::vector<Register> &regs = quantum ? qregs_ : cregs_;
    const int offset =
        regs.empty() ? 0 : regs.back().offset + regs.back().size;
    const std::string_view kept = arena->copy(name);
    registers_.emplace(kept, RegisterRef{quantum, static_cast<uint32_t>(
                                                      regs.size())});
    regs.push_back(Register{kept, size, offset, line});
    return true;
}

const Register *
Program::qreg(std::string_view name) const
{
    const auto it = registers_.find(name);
    return it != registers_.end() && it->second.quantum
               ? &qregs_[it->second.index]
               : nullptr;
}

const Register *
Program::creg(std::string_view name) const
{
    const auto it = registers_.find(name);
    return it != registers_.end() && !it->second.quantum
               ? &cregs_[it->second.index]
               : nullptr;
}

} // namespace qasm
} // namespace autobraid

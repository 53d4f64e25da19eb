#include "src/ifa/interpreter.h"

#include "src/base/strings.h"

namespace sep {

namespace {

// Arithmetic wraps modulo 2^64 instead of overflowing: programs are
// untrusted input, and signed overflow is undefined behaviour. Unsigned
// arithmetic wraps by definition and the conversion back is modular.
std::int64_t Wrap(std::uint64_t value) { return static_cast<std::int64_t>(value); }
std::uint64_t Unsigned(std::int64_t value) { return static_cast<std::uint64_t>(value); }

class Interp {
 public:
  Interp(const Program& program, SimplEnv env, const InterpOptions& options)
      : program_(program), env_(std::move(env)), options_(options) {}

  Result<SimplEnv> Run() {
    for (const VarDecl& v : program_.variables) {
      env_.try_emplace(v.name, 0);
    }
    if (Result<> r = RunBlock(program_.statements); !r.ok()) {
      return Err(r.error());
    }
    return std::move(env_);
  }

 private:
  Result<std::int64_t> Eval(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kNumber:
        return expr.number;
      case Expr::Kind::kVariable:
        return env_[expr.variable];
      case Expr::Kind::kUnary: {
        Result<std::int64_t> v = Eval(*expr.lhs);
        if (!v.ok()) {
          return v;
        }
        return expr.un_op == UnOp::kNeg ? Wrap(0 - Unsigned(*v))
                                        : static_cast<std::int64_t>(*v == 0);
      }
      case Expr::Kind::kBinary: {
        Result<std::int64_t> l = Eval(*expr.lhs);
        if (!l.ok()) {
          return l;
        }
        Result<std::int64_t> r = Eval(*expr.rhs);
        if (!r.ok()) {
          return r;
        }
        switch (expr.bin_op) {
          case BinOp::kAdd:
            return Wrap(Unsigned(*l) + Unsigned(*r));
          case BinOp::kSub:
            return Wrap(Unsigned(*l) - Unsigned(*r));
          case BinOp::kMul:
            return Wrap(Unsigned(*l) * Unsigned(*r));
          case BinOp::kDiv:
            if (*r == 0) {
              return Err(Format("line %d: division by zero", expr.line));
            }
            // INT64_MIN / -1 overflows; like negation it wraps to INT64_MIN.
            return *r == -1 ? Wrap(0 - Unsigned(*l)) : *l / *r;
          case BinOp::kMod:
            if (*r == 0) {
              return Err(Format("line %d: modulo by zero", expr.line));
            }
            return *r == -1 ? 0 : *l % *r;  // INT64_MIN % -1 is 0, not a trap
          case BinOp::kEq:
            return static_cast<std::int64_t>(*l == *r);
          case BinOp::kNe:
            return static_cast<std::int64_t>(*l != *r);
          case BinOp::kLt:
            return static_cast<std::int64_t>(*l < *r);
          case BinOp::kLe:
            return static_cast<std::int64_t>(*l <= *r);
          case BinOp::kGt:
            return static_cast<std::int64_t>(*l > *r);
          case BinOp::kGe:
            return static_cast<std::int64_t>(*l >= *r);
          case BinOp::kAnd:
            return static_cast<std::int64_t>(*l != 0 && *r != 0);
          case BinOp::kOr:
            return static_cast<std::int64_t>(*l != 0 || *r != 0);
        }
        return Err("bad binary op");
      }
    }
    return Err("bad expression");
  }

  Result<> RunBlock(const std::vector<StmtPtr>& block) {
    for (const StmtPtr& stmt : block) {
      if (Result<> r = RunStmt(*stmt); !r.ok()) {
        return r;
      }
    }
    return Ok();
  }

  Result<> RunStmt(const Stmt& stmt) {
    if (++steps_ > options_.max_steps) {
      return Err("step limit exceeded");
    }
    switch (stmt.kind) {
      case Stmt::Kind::kAssign: {
        Result<std::int64_t> v = Eval(*stmt.value);
        if (!v.ok()) {
          return Err(v.error());
        }
        env_[stmt.target] = *v;
        return Ok();
      }
      case Stmt::Kind::kIf: {
        Result<std::int64_t> cond = Eval(*stmt.condition);
        if (!cond.ok()) {
          return Err(cond.error());
        }
        return RunBlock(*cond != 0 ? stmt.body : stmt.orelse);
      }
      case Stmt::Kind::kWhile: {
        while (true) {
          Result<std::int64_t> cond = Eval(*stmt.condition);
          if (!cond.ok()) {
            return Err(cond.error());
          }
          if (*cond == 0) {
            return Ok();
          }
          if (Result<> r = RunBlock(stmt.body); !r.ok()) {
            return r;
          }
          if (++steps_ > options_.max_steps) {
            return Err("step limit exceeded");
          }
        }
      }
    }
    return Ok();
  }

  const Program& program_;
  SimplEnv env_;
  const InterpOptions& options_;
  std::size_t steps_ = 0;
};

}  // namespace

Result<SimplEnv> RunSimpl(const Program& program, SimplEnv env, const InterpOptions& options) {
  return Interp(program, std::move(env), options).Run();
}

}  // namespace sep

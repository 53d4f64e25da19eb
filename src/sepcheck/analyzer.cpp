#include "src/sepcheck/analyzer.h"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>

#include "src/base/strings.h"
#include "src/machine/machine.h"  // kDeviceRegSpan
#include "src/sepcheck/absdomain.h"

namespace sep::sepcheck {

namespace {

// Join budget before a CFG edge's target is widened. Small because guest
// programs are small; correctness does not depend on the value.
constexpr int kWidenAfter = 3;
// Channel-index intervals wider than this are treated as unprovable rather
// than enumerating their members.
constexpr std::uint32_t kMaxChannelFanout = 64;
// Handler-discovery iterations (SETVEC roots found by one dataflow round
// feed the next lift).
constexpr int kMaxLiftRounds = 8;

// A resolved operand: a register, an immediate value, or a memory cell
// whose address is abstractly known.
struct OperandInfo {
  enum class Kind { kNone, kReg, kImm, kMem } kind = Kind::kNone;
  int reg = 0;
  Word imm = 0;
  AbsVal mem_addr;
};

// Check-site tags, so findings and obligations from different operand
// positions of one instruction stay distinct when results from several
// analysis contexts are merged. Channel checks use kSiteChannelBase + k.
enum Site {
  kSiteSrc = 0,
  kSiteDst = 1,
  kSiteStack = 2,
  kSiteTrapLegal = 3,
  kSiteTrapRegisterSave = 4,
  kSiteControl = 5,
  kSiteSetvec = 6,
  kSiteSgTable = 7,
  kSiteChannelBase = 100,
  kSiteRingBase = 200,
};

// Comparison predicate between the two CMP sides (source vs destination),
// derived from the branch opcode and edge direction.
enum class CmpRel { kNone, kEq, kNe, kLt, kLe, kGt, kGe };

CmpRel Negate(CmpRel r) {
  switch (r) {
    case CmpRel::kEq:
      return CmpRel::kNe;
    case CmpRel::kNe:
      return CmpRel::kEq;
    case CmpRel::kLt:
      return CmpRel::kGe;
    case CmpRel::kGe:
      return CmpRel::kLt;
    case CmpRel::kGt:
      return CmpRel::kLe;
    case CmpRel::kLe:
      return CmpRel::kGt;
    case CmpRel::kNone:
      break;
  }
  return CmpRel::kNone;
}

bool IsCondBranch(Opcode op) {
  switch (op) {
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBmi:
    case Opcode::kBpl:
    case Opcode::kBcs:
    case Opcode::kBcc:
    case Opcode::kBvs:
    case Opcode::kBvc:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBgt:
    case Opcode::kBle:
      return true;
    default:
      return false;
  }
}

AbsVal AddConstMod(const AbsVal& a, Word k) {
  if (a.IsConst()) return AbsVal::Const(static_cast<Word>(a.ConstVal() + k));
  return AbsVal::Add(a, AbsVal::Const(k));
}

// Removes the single point `c` from `v` when it sits on an endpoint;
// returns false when v was exactly {c} (the edge is unreachable).
bool TrimPoint(AbsVal& v, std::uint32_t c) {
  if (v.IsConst()) return v.lo != c;
  if (v.lo == c) {
    ++v.lo;
  } else if (v.hi == c) {
    --v.hi;
  }
  return true;
}

class ProgramAnalyzer {
 public:
  ProgramAnalyzer(const AssembledProgram& program, const std::string& source,
                  const RegimeView& view)
      : program_(program), view_(view), annotations_(ParseAnnotations(source)) {
    // Mirror ProgramMmuFor: this regime's shared-ring data windows, in
    // shared_rings declaration order, at pages kSharedRingPageBase..;
    // producer read-write, consumer read-only.
    int window = 0;
    for (std::size_t k = 0; k < view_.shared_rings.size(); ++k) {
      const SharedRingConfig& ring = view_.shared_rings[k];
      const bool producer = ring.producer == view_.index;
      if (!producer && ring.consumer != view_.index) continue;
      ring_windows_.push_back(RingWindow{
          static_cast<int>(k), PageVBase(kSharedRingPageBase + window), ring.capacity,
          producer});
      ++window;
    }
  }

  ProgramAnalysis Run() {
    std::vector<Word> roots = {program_.EntryPoint()};
    for (int round = 0; round < kMaxLiftRounds; ++round) {
      cfg_ = LiftCfg(program_, roots, view_.name);
      CollectWidenThresholds();
      Solve(roots);
      std::vector<Word> discovered = DiscoverHandlers();
      bool grew = false;
      for (Word h : discovered) {
        if (std::find(roots.begin(), roots.end(), h) == roots.end()) {
          roots.push_back(h);
          grew = true;
        }
      }
      if (!grew) break;
    }

    for (const Finding& f : cfg_.findings) {
      // Lift-time findings (indirect jumps, invalid opcodes): execution
      // containment, part of the memory-partition condition.
      Report(f, Condition::kMemoryPartition, kSiteControl);
    }
    for (const auto& [addr, node] : cfg_.nodes) {
      for (int ctx = 0; ctx < static_cast<int>(contexts_.size()); ++ctx) {
        auto it = in_.find({addr, ctx});
        if (it == in_.end() || !it->second.reachable) continue;
        CheckNode(node, it->second);
      }
    }
    ReportStaleAnnotations();
    FillVacuousObligations();

    ProgramAnalysis out;
    out.cfg = std::move(cfg_);
    out.findings = std::move(findings_);
    out.ring_touches = std::move(ring_touches_);
    out.obligations = std::move(obligations_);
    return out;
  }

 private:
  // Depth-1 call-string context: index 0 is the root context (entry and
  // interrupt handlers); every JSR site opens one more, identified by the
  // call-site address, returning to that site's continuation.
  struct Ctx {
    Word call_site = 0;
    Word ret = 0;
  };
  using StateKey = std::pair<Word, int>;  // (instruction address, context)

  // --- dataflow ---------------------------------------------------------------

  AbsState EntryState() const {
    AbsState s;
    s.reachable = true;
    for (int i = 0; i < 6; ++i) s.regs[i] = AbsVal::Const(0);
    s.regs[kSp] = AbsVal::Const(static_cast<Word>(view_.mem_words));
    s.regs[kPc] = AbsVal::Top();  // PC is known per-node, not tracked
    return s;
  }

  static AbsState HandlerState() {
    // A handler can be entered from any point, with the interrupted
    // context's registers: nothing is known.
    AbsState s;
    s.reachable = true;
    return s;
  }

  int CtxForSite(const CfgNode& node) {
    auto [it, inserted] = ctx_of_site_.try_emplace(node.addr,
                                                   static_cast<int>(contexts_.size()));
    if (inserted) {
      contexts_.push_back(Ctx{node.addr, node.jsr_return});
      parents_.emplace_back();
    }
    return it->second;
  }

  // The widening landmarks: every immediate and index constant in the
  // program (±1, so both the "<= k" and ">= k+1" sides of a comparison are
  // exact landmarks) plus the partition bounds. Widening jumps to the next
  // landmark instead of the interval extreme; a cursor squeezed against a
  // guard's CMP cap then stabilizes on the cap instead of blowing through
  // it to 0xFFFF, where the next INC would wrap the interval to TOP.
  void CollectWidenThresholds() {
    std::vector<std::uint32_t> t;
    auto add = [&t](std::int64_t v) {
      if (v >= 1 && v <= 0xFFFE) t.push_back(static_cast<std::uint32_t>(v));
    };
    for (const auto& [addr, node] : cfg_.nodes) {
      const bool src_ext = node.insn.src.NeedsExtension();
      const bool dst_ext = node.insn.dst.NeedsExtension();
      for (int i = 0; i < 2; ++i) {
        if (i == 0 ? !src_ext : !dst_ext) continue;
        const Word ext = (i == 0 || !src_ext) ? node.ext1 : node.ext2;
        add(static_cast<std::int64_t>(ext) - 1);
        add(ext);
        add(static_cast<std::int64_t>(ext) + 1);
      }
    }
    add(static_cast<std::int64_t>(view_.mem_words) - 1);
    add(view_.mem_words);
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    widen_thresholds_ = std::move(t);
  }

  // `allow_widen` is false on conditional-branch out-edges: their states
  // approach the refinement cap gradually (min(growing bound, cap)), and
  // even threshold widening there would discard the refinement work in
  // progress. Termination is preserved because every value-producing
  // (arithmetic) node's out-edge is an ordinary edge and still widens.
  void Propagate(Word from, Word to, int to_ctx, const AbsState& state,
                 std::deque<StateKey>& work, bool allow_widen = true) {
    int& joins = join_counts_[{from, to, to_ctx}];
    if (in_[{to, to_ctx}].JoinFrom(state, allow_widen && joins >= kWidenAfter,
                                   &widen_thresholds_)) {
      ++joins;
      work.push_back({to, to_ctx});
    }
  }

  void Solve(const std::vector<Word>& roots) {
    in_.clear();
    join_counts_.clear();
    contexts_.assign(1, Ctx{});
    ctx_of_site_.clear();
    parents_.assign(1, {});
    rts_outs_.clear();
    std::deque<StateKey> work;
    for (std::size_t i = 0; i < roots.size(); ++i) {
      in_[{roots[i], 0}] = i == 0 ? EntryState() : HandlerState();
      work.push_back({roots[i], 0});
    }
    std::size_t iterations = 0;
    // Budget scales with the context count: every JSR site opens one.
    const std::size_t budget =
        (cfg_.nodes.size() + 1) * 256 * (cfg_.jsr_returns.size() + 1);
    while (!work.empty() && iterations++ < budget) {
      const auto [addr, ctx] = work.front();
      work.pop_front();
      auto node_it = cfg_.nodes.find(addr);
      if (node_it == cfg_.nodes.end()) continue;
      const CfgNode& node = node_it->second;
      const AbsState out = Transfer(node, in_[{addr, ctx}]);
      if (!out.reachable) continue;

      if (node.is_jsr) {
        const int callee = CtxForSite(node);
        if (parents_[static_cast<std::size_t>(callee)].insert(ctx).second) {
          // A caller discovered after the callee's RTS already ran: replay
          // the recorded return states into the new parent.
          for (const auto& [key, st] : rts_outs_) {
            if (key.second == callee) {
              Propagate(key.first, contexts_[static_cast<std::size_t>(callee)].ret,
                        ctx, st, work);
            }
          }
        }
        Propagate(addr, node.jsr_target, callee, out, work);
      } else if (node.is_rts) {
        rts_outs_[{addr, ctx}] = out;
        if (ctx == 0) {
          // RTS outside any tracked call (root context): fall back to the
          // CFG's sound over-approximation — every JSR continuation.
          for (Word r : cfg_.jsr_returns) Propagate(addr, r, 0, out, work);
        } else {
          const Ctx& c = contexts_[static_cast<std::size_t>(ctx)];
          for (int p : parents_[static_cast<std::size_t>(ctx)]) {
            Propagate(addr, c.ret, p, out, work);
          }
        }
      } else if (IsCondBranch(node.insn.opcode) && node.succs.size() == 2 &&
                 node.succs[0] != node.succs[1]) {
        AbsState taken = out;
        if (RefineBranch(node.insn.opcode, taken, /*taken=*/true)) {
          Propagate(addr, node.succs[0], ctx, taken, work, /*allow_widen=*/false);
        }
        AbsState fall = out;
        if (RefineBranch(node.insn.opcode, fall, /*taken=*/false)) {
          Propagate(addr, node.succs[1], ctx, fall, work, /*allow_widen=*/false);
        }
      } else {
        for (Word succ : node.succs) Propagate(addr, succ, ctx, out, work);
      }
    }
  }

  // --- branch refinement ------------------------------------------------------

  // Narrows `s` along one edge of a conditional branch; returns false when
  // the refined state is empty (the edge is statically unreachable).
  bool RefineBranch(Opcode branch, AbsState& s, bool taken) const {
    const FlagsSrc& f = s.flags;
    if (f.kind == FlagsSrc::Kind::kZn) {
      if (f.d_reg < 0) return true;
      AbsVal& v = s.regs[f.d_reg];
      switch (branch) {
        case Opcode::kBeq:
          return RefineZero(v, taken);
        case Opcode::kBne:
          return RefineZero(v, !taken);
        case Opcode::kBmi:
          return RefineSign(v, taken);
        case Opcode::kBpl:
          return RefineSign(v, !taken);
        default:
          return true;
      }
    }
    if (f.kind != FlagsSrc::Kind::kCmp) return true;

    CmpRel rel = CmpRel::kNone;
    switch (branch) {
      case Opcode::kBeq:
        rel = CmpRel::kEq;
        break;
      case Opcode::kBne:
        rel = CmpRel::kNe;
        break;
      case Opcode::kBcs:  // C = (src < dst) unsigned
        rel = CmpRel::kLt;
        break;
      case Opcode::kBcc:
        rel = CmpRel::kGe;
        break;
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBgt:
      case Opcode::kBle: {
        // Signed compare coincides with unsigned when both sides are
        // provably non-negative 16-bit values.
        const AbsVal sv = f.s_reg >= 0 ? s.regs[f.s_reg] : f.s_val;
        const AbsVal dv = f.d_reg >= 0 ? s.regs[f.d_reg] : f.d_val;
        if (sv.hi >= 0x8000 || dv.hi >= 0x8000) return true;
        rel = branch == Opcode::kBlt   ? CmpRel::kLt
              : branch == Opcode::kBge ? CmpRel::kGe
              : branch == Opcode::kBgt ? CmpRel::kGt
                                       : CmpRel::kLe;
        break;
      }
      default:
        return true;  // BVS/BVC/BMI/BPL on a subtraction: not modelled
    }
    if (!taken) rel = Negate(rel);
    return ApplyCmp(s, rel);
  }

  static bool RefineZero(AbsVal& v, bool is_zero) {
    if (is_zero) {
      if (v.lo > 0) return false;
      v = AbsVal::Const(0);
      return true;
    }
    return TrimPoint(v, 0);
  }

  static bool RefineSign(AbsVal& v, bool negative) {
    if (negative) {
      if (v.hi < 0x8000) return false;
      v.lo = std::max<std::uint32_t>(v.lo, 0x8000);
    } else {
      if (v.lo >= 0x8000) return false;
      v.hi = std::min<std::uint32_t>(v.hi, 0x7FFF);
    }
    return true;
  }

  // Applies `s_value REL d_value` to the CMP sides recorded in the flags:
  // narrows the interval of each live side and the difference constraint
  // between two distinct live registers (CMP Rn, Rn relates no pair).
  bool ApplyCmp(AbsState& st, CmpRel rel) const {
    const FlagsSrc& f = st.flags;
    AbsVal sv = f.s_reg >= 0 ? st.regs[f.s_reg] : f.s_val;
    AbsVal dv = f.d_reg >= 0 ? st.regs[f.d_reg] : f.d_val;
    const bool both = f.s_reg >= 0 && f.d_reg >= 0 && f.s_reg != f.d_reg;
    constexpr std::int32_t kInf = RelBound::kInf;
    switch (rel) {
      case CmpRel::kNone:
        return true;
      case CmpRel::kEq: {
        const std::uint32_t lo = std::max(sv.lo, dv.lo);
        const std::uint32_t hi = std::min(sv.hi, dv.hi);
        if (lo > hi) return false;
        sv = dv = AbsVal::Range(lo, hi);
        if (both && !st.rel.Refine(f.s_reg, f.d_reg, 0, 0)) return false;
        break;
      }
      case CmpRel::kNe: {
        if (sv.IsConst() && dv.IsConst() && sv.lo == dv.lo) return false;
        if (sv.IsConst() && !TrimPoint(dv, sv.lo)) return false;
        if (dv.IsConst() && !TrimPoint(sv, dv.lo)) return false;
        if (both) {
          const RelBound b = st.rel.Get(f.s_reg, f.d_reg);
          if (b.lo == 0 && b.hi == 0) return false;
          if (b.lo == 0 && !st.rel.Refine(f.s_reg, f.d_reg, 1, kInf)) return false;
          if (b.hi == 0 && !st.rel.Refine(f.s_reg, f.d_reg, -kInf, -1)) return false;
        }
        break;
      }
      case CmpRel::kLt:  // src < dst
        if (dv.hi == 0 || sv.lo == 0xFFFF) return false;
        sv.hi = std::min(sv.hi, dv.hi - 1);
        dv.lo = std::max(dv.lo, sv.lo + 1);
        if (sv.lo > sv.hi || dv.lo > dv.hi) return false;
        if (both && !st.rel.Refine(f.s_reg, f.d_reg, -kInf, -1)) return false;
        break;
      case CmpRel::kLe:  // src <= dst
        sv.hi = std::min(sv.hi, dv.hi);
        dv.lo = std::max(dv.lo, sv.lo);
        if (sv.lo > sv.hi || dv.lo > dv.hi) return false;
        if (both && !st.rel.Refine(f.s_reg, f.d_reg, -kInf, 0)) return false;
        break;
      case CmpRel::kGt:  // src > dst
        if (sv.hi == 0 || dv.lo == 0xFFFF) return false;
        sv.lo = std::max(sv.lo, dv.lo + 1);
        dv.hi = std::min(dv.hi, sv.hi - 1);
        if (sv.lo > sv.hi || dv.lo > dv.hi) return false;
        if (both && !st.rel.Refine(f.s_reg, f.d_reg, 1, kInf)) return false;
        break;
      case CmpRel::kGe:  // src >= dst
        sv.lo = std::max(sv.lo, dv.lo);
        dv.hi = std::min(dv.hi, sv.hi);
        if (sv.lo > sv.hi || dv.lo > dv.hi) return false;
        if (both && !st.rel.Refine(f.s_reg, f.d_reg, 0, kInf)) return false;
        break;
    }
    if (f.s_reg >= 0) st.regs[f.s_reg] = sv;
    if (f.d_reg >= 0) st.regs[f.d_reg] = dv;
    return true;
  }

  // --- transfer functions -----------------------------------------------------

  // Interval of register r tightened by one closure step over the
  // difference constraints: r ∈ regs[r] ∩ (regs[q] + rel(r,q)) for every
  // constrained partner q. This is what lets a widened pointer inherit the
  // branch-refined bound of its lockstep counter.
  AbsVal EffectiveReg(const AbsState& s, int r) const {
    if (r >= RelSet::kRegs) {
      return r == kPc ? AbsVal::Top() : s.regs[r];
    }
    AbsVal v = s.regs[r];
    for (int q = 0; q < RelSet::kRegs; ++q) {
      if (q == r) continue;
      const RelBound b = s.rel.Get(r, q);
      if (b.IsTop()) continue;
      const AbsVal& qv = s.regs[q];
      std::int64_t lo = v.lo;
      std::int64_t hi = v.hi;
      if (b.lo > -RelBound::kInf) {
        lo = std::max<std::int64_t>(lo, static_cast<std::int64_t>(qv.lo) + b.lo);
      }
      if (b.hi < RelBound::kInf) {
        hi = std::min<std::int64_t>(hi, static_cast<std::int64_t>(qv.hi) + b.hi);
      }
      lo = std::clamp<std::int64_t>(lo, 0, 0xFFFF);
      hi = std::clamp<std::int64_t>(hi, 0, 0xFFFF);
      if (lo > hi) return s.regs[r];  // inconsistent residue: stay conservative
      v = AbsVal::Range(static_cast<std::uint32_t>(lo),
                        static_cast<std::uint32_t>(hi));
    }
    return v;
  }

  // After a register write that produced a constant, records its exact
  // difference with every other constant register. This seeds relations
  // between independently initialized registers (CLR R3 / MOV #0x100, R4)
  // so that lockstep updates later in a loop (INC R3 / INC R4) keep the
  // difference exact even after the intervals themselves widen apart.
  static void SeedConstRels(AbsState& s, int r) {
    if (r >= RelSet::kRegs || !s.regs[r].IsConst()) return;
    for (int q = 0; q < RelSet::kRegs; ++q) {
      if (q == r || !s.regs[q].IsConst()) continue;
      const std::int32_t d = static_cast<std::int32_t>(s.regs[r].ConstVal()) -
                             static_cast<std::int32_t>(s.regs[q].ConstVal());
      (void)s.rel.Refine(r, q, d, d);
    }
  }

  OperandInfo EvalOperand(const CfgNode& node, bool is_src, const AbsState& s) const {
    const OperandSpec& spec = is_src ? node.insn.src : node.insn.dst;
    const bool src_has_ext = node.insn.src.NeedsExtension();
    const Word ext = is_src ? node.ext1 : (src_has_ext ? node.ext2 : node.ext1);
    const Word ext_addr =
        static_cast<Word>(node.addr + 1 + ((!is_src && src_has_ext) ? 1 : 0));
    OperandInfo out;
    switch (spec.mode) {
      case AddrMode::kReg:
        out.kind = OperandInfo::Kind::kReg;
        out.reg = spec.reg;
        break;
      case AddrMode::kRegDeferred:
        out.kind = OperandInfo::Kind::kMem;
        out.mem_addr = spec.reg == kPc
                           ? AbsVal::Const(static_cast<Word>(node.addr + 1))
                           : EffectiveReg(s, spec.reg);
        break;
      case AddrMode::kImmediate:
        if (is_src) {
          out.kind = OperandInfo::Kind::kImm;
          out.imm = ext;
        } else {  // absolute destination address
          out.kind = OperandInfo::Kind::kMem;
          out.mem_addr = AbsVal::Const(ext);
        }
        break;
      case AddrMode::kIndexed:
        out.kind = OperandInfo::Kind::kMem;
        out.mem_addr = spec.reg == kPc
                           ? AbsVal::Const(static_cast<Word>(ext + ext_addr + 1))
                           : AddConstMod(EffectiveReg(s, spec.reg), ext);
        break;
    }
    return out;
  }

  AbsVal ReadValue(const OperandInfo& op, const AbsState& s) const {
    switch (op.kind) {
      case OperandInfo::Kind::kReg:
        return op.reg == kPc ? AbsVal::Top() : EffectiveReg(s, op.reg);
      case OperandInfo::Kind::kImm:
        return AbsVal::Const(op.imm);
      default:
        return AbsVal::Top();  // memory contents are not tracked
    }
  }

  // Records the condition codes after a CMP: each side is a live register
  // (R0..R5) or a value snapshot.
  void SetCmpFlags(AbsState& s, const OperandInfo& src, const OperandInfo& dst) const {
    FlagsSrc f;
    f.kind = FlagsSrc::Kind::kCmp;
    if (src.kind == OperandInfo::Kind::kReg && src.reg < 6) {
      f.s_reg = static_cast<std::int8_t>(src.reg);
    } else {
      f.s_val = ReadValue(src, s);
    }
    if (dst.kind == OperandInfo::Kind::kReg && dst.reg < 6) {
      f.d_reg = static_cast<std::int8_t>(dst.reg);
    } else {
      f.d_val = ReadValue(dst, s);
    }
    s.flags = f;
  }

  AbsState Transfer(const CfgNode& node, const AbsState& in) const {
    AbsState s = in;
    if (!s.reachable) return s;
    const Opcode op = node.insn.opcode;
    switch (op) {
      case Opcode::kMov: {
        const OperandInfo src = EvalOperand(node, true, s);
        const OperandInfo dst = EvalOperand(node, false, s);
        const AbsVal v = ReadValue(src, s);
        if (dst.kind == OperandInfo::Kind::kReg && dst.reg != kPc) {
          const int r = dst.reg;
          const bool self = src.kind == OperandInfo::Kind::kReg && src.reg == r;
          if (!self) {
            if (r < RelSet::kRegs) {
              if (src.kind == OperandInfo::Kind::kReg && src.reg < RelSet::kRegs) {
                s.rel.CopyFrom(r, src.reg);
              } else {
                s.rel.Drop(r);
              }
            }
            s.regs[r] = v;
            SeedConstRels(s, r);
          }
          if (r < 6) {
            s.flags = FlagsSrc::Zn(r);
          } else {
            s.flags = FlagsSrc{};
          }
        } else {
          // Memory (or PC) destination: NZ reflect the moved value; usable
          // when the source is a live register.
          s.flags = src.kind == OperandInfo::Kind::kReg && src.reg < 6
                        ? FlagsSrc::Zn(src.reg)
                        : FlagsSrc{};
        }
        break;
      }
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kBic:
      case Opcode::kBis:
      case Opcode::kXor: {
        const OperandInfo src = EvalOperand(node, true, s);
        const OperandInfo dst = EvalOperand(node, false, s);
        const AbsVal a = ReadValue(src, s);
        const AbsVal d = ReadValue(dst, s);
        AbsVal r;
        switch (op) {
          case Opcode::kAdd:
            r = AbsVal::Add(a, d);
            break;
          case Opcode::kSub:
            r = AbsVal::Sub(d, a);
            break;
          case Opcode::kBic:
            r = a.IsConst() ? AbsVal::BicMask(d, a.ConstVal())
                            : ConstOnly(d, a, [](Word x, Word y) { return x & ~y; });
            break;
          case Opcode::kBis:
            r = ConstOnly(d, a, [](Word x, Word y) { return x | y; });
            break;
          default:  // kXor
            r = ConstOnly(d, a, [](Word x, Word y) { return x ^ y; });
            break;
        }
        if (dst.kind == OperandInfo::Kind::kReg && dst.reg != kPc) {
          const int rr = dst.reg;
          if (rr < RelSet::kRegs) {
            const bool src_is_reg =
                src.kind == OperandInfo::Kind::kReg && src.reg < RelSet::kRegs;
            if (op == Opcode::kAdd && a.hi + d.hi <= 0xFFFF) {
              if (src_is_reg && src.reg != rr) {
                // new Rr − Rsrc = old Rr
                s.rel.Drop(rr);
                (void)s.rel.Refine(rr, src.reg, static_cast<std::int32_t>(d.lo),
                                   static_cast<std::int32_t>(d.hi));
              } else if (src.kind == OperandInfo::Kind::kImm ||
                         (!src_is_reg && src.kind != OperandInfo::Kind::kReg &&
                          a.IsConst())) {
                s.rel.Shift(rr, static_cast<std::int32_t>(a.lo),
                            static_cast<std::int32_t>(a.hi));
              } else {
                s.rel.Drop(rr);
              }
            } else if (op == Opcode::kSub && d.lo >= a.hi && !src_is_reg &&
                       src.kind != OperandInfo::Kind::kReg) {
              s.rel.Shift(rr, -static_cast<std::int32_t>(a.hi),
                          -static_cast<std::int32_t>(a.lo));
            } else {
              s.rel.Drop(rr);
            }
          }
          s.regs[rr] = r;
          s.flags = rr < 6 ? FlagsSrc::Zn(rr) : FlagsSrc{};
        } else {
          s.flags = FlagsSrc{};
        }
        break;
      }
      case Opcode::kCmp: {
        const OperandInfo src = EvalOperand(node, true, s);
        const OperandInfo dst = EvalOperand(node, false, s);
        SetCmpFlags(s, src, dst);
        break;
      }
      case Opcode::kBit:
        s.flags = FlagsSrc{};  // NZ of src & dst: not modelled
        break;
      case Opcode::kTst: {
        const OperandInfo dst = EvalOperand(node, false, s);
        s.flags = dst.kind == OperandInfo::Kind::kReg && dst.reg < 6
                      ? FlagsSrc::Zn(dst.reg)
                      : FlagsSrc{};
        break;
      }
      case Opcode::kClr: {
        const OperandInfo dst = EvalOperand(node, false, s);
        if (dst.kind == OperandInfo::Kind::kReg && dst.reg != kPc) {
          if (dst.reg < RelSet::kRegs) s.rel.Drop(dst.reg);
          s.regs[dst.reg] = AbsVal::Const(0);
          SeedConstRels(s, dst.reg);
          s.flags = dst.reg < 6 ? FlagsSrc::Zn(dst.reg) : FlagsSrc{};
        } else {
          s.flags = FlagsSrc{};
        }
        break;
      }
      case Opcode::kInc:
      case Opcode::kDec: {
        const OperandInfo dst = EvalOperand(node, false, s);
        if (dst.kind == OperandInfo::Kind::kReg && dst.reg != kPc) {
          const int r = dst.reg;
          const AbsVal d = ReadValue(dst, s);
          const bool wraps = op == Opcode::kInc ? d.hi >= 0xFFFF : d.lo == 0;
          if (r < RelSet::kRegs) {
            if (wraps) {
              s.rel.Drop(r);
            } else {
              s.rel.Shift(r, op == Opcode::kInc ? 1 : -1, op == Opcode::kInc ? 1 : -1);
            }
          }
          s.regs[r] = op == Opcode::kInc ? AbsVal::Add(d, AbsVal::Const(1))
                                         : AbsVal::Sub(d, AbsVal::Const(1));
          s.flags = r < 6 ? FlagsSrc::Zn(r) : FlagsSrc{};
        } else {
          s.flags = FlagsSrc{};
        }
        break;
      }
      case Opcode::kNeg:
      case Opcode::kCom:
      case Opcode::kAsr:
      case Opcode::kAsl: {
        const OperandInfo dst = EvalOperand(node, false, s);
        if (dst.kind == OperandInfo::Kind::kReg && dst.reg != kPc) {
          const int r = dst.reg;
          const AbsVal d = ReadValue(dst, s);
          AbsVal v;
          switch (op) {
            case Opcode::kNeg:
              v = d.IsConst() ? AbsVal::Const(static_cast<Word>(-d.ConstVal()))
                              : AbsVal::Top();
              break;
            case Opcode::kCom:
              v = d.IsConst() ? AbsVal::Const(static_cast<Word>(~d.ConstVal()))
                              : AbsVal::Top();
              break;
            case Opcode::kAsr:
              v = AbsVal::Asr(d);
              break;
            default:  // kAsl
              v = AbsVal::Asl(d);
              break;
          }
          if (r < RelSet::kRegs) s.rel.Drop(r);
          s.regs[r] = v;
          s.flags = r < 6 ? FlagsSrc::Zn(r) : FlagsSrc{};
        } else {
          s.flags = FlagsSrc{};
        }
        break;
      }
      case Opcode::kJsr: {
        // Pushes the return address. JSR leaves the condition codes alone,
        // and FlagsSrc never holds SP as a live side, so flags survive.
        const AbsVal sp = s.regs[kSp];
        if (sp.lo >= 1) {
          s.rel.Shift(kSp, -1, -1);
        } else {
          s.rel.Drop(kSp);
        }
        s.regs[kSp] = AbsVal::Sub(sp, AbsVal::Const(1));
        break;
      }
      case Opcode::kRts: {
        const AbsVal sp = s.regs[kSp];
        if (sp.hi + 1 <= 0xFFFF) {
          s.rel.Shift(kSp, 1, 1);
        } else {
          s.rel.Drop(kSp);
        }
        s.regs[kSp] = AbsVal::Add(sp, AbsVal::Const(1));
        break;
      }
      case Opcode::kTrap:
        TransferTrap(node.insn.trap_code, s);
        break;
      default:
        break;  // HALT/WAIT/RTI/NOP/JMP/branches: no register effect
    }
    return s;
  }

  void TransferTrap(std::uint16_t code, AbsState& s) const {
    // The kernel entry/exit path makes no promise about condition codes.
    s.flags = FlagsSrc{};
    if (view_.bare) {
      // Vectors through the program's own kernel-mode handler; outside the
      // per-regime model, so assume nothing afterwards.
      for (int i = 0; i < 6; ++i) {
        s.regs[i] = AbsVal::Top();
        s.rel.Drop(i);
      }
      return;
    }
    switch (code) {
      case kCallSend:
        s.regs[0] = AbsVal::Range(0, 1);  // 1 = delivered, 0 = full
        s.rel.Drop(0);
        break;
      case kCallRecv:
        s.regs[0] = AbsVal::Range(0, 1);
        s.regs[1] = AbsVal::Top();  // the received word
        s.rel.Drop(0);
        s.rel.Drop(1);
        break;
      case kCallStat:
        s.regs[0] = AbsVal::Top();
        s.regs[1] = AbsVal::Top();
        s.rel.Drop(0);
        s.rel.Drop(1);
        break;
      case kCallAwait:
        s.regs[0] = AbsVal::Top();  // pending-interrupt mask
        s.rel.Drop(0);
        break;
      case kCallGetId:
        s.regs[0] = AbsVal::Const(static_cast<Word>(view_.index));
        s.rel.Drop(0);
        break;
      case kCallSendv:
      case kCallRecvv:
        // R0 = words moved: 0 on stall (SENDV) up to the batch bound.
        s.regs[0] = AbsVal::Range(0, kMaxBatchWords);
        s.rel.Drop(0);
        break;
      case kCallRingPut:
      case kCallRingGet:
        s.regs[0] = AbsVal::Range(0, 1);  // 1 = committed, 0 = stall
        s.rel.Drop(0);
        break;
      case kCallRingStat:
        s.regs[0] = AbsVal::Top();  // occupancy
        s.regs[1] = AbsVal::Top();  // free slots
        s.regs[2] = AbsVal::Top();  // high watermark
        s.rel.Drop(0);
        s.rel.Drop(1);
        s.rel.Drop(2);
        break;
      default:
        break;  // SWAP/SETVEC preserve registers; HALT/RETI do not return
    }
  }

  // Binary result helper: exact when both operands are constants.
  template <typename F>
  static AbsVal ConstOnly(const AbsVal& a, const AbsVal& b, F f) {
    if (a.IsConst() && b.IsConst()) {
      return AbsVal::Const(static_cast<Word>(f(a.ConstVal(), b.ConstVal())));
    }
    return AbsVal::Top();
  }

  // --- findings and obligations ----------------------------------------------

  // Reports a finding once per (address, site, kind) across contexts, and
  // mirrors it into the obligation ledger under `cond`. Annotation
  // discharge is applied here; a used trust line is marked so it is not
  // audited as stale.
  void Report(Finding f, Condition cond, int site) {
    if (f.line < 0 && f.address >= 0) f.line = program_.LineOf(static_cast<Word>(f.address));
    f.condition = ConditionSlug(cond);
    auto trusted = annotations_.trusted_lines.find(f.line);
    const bool discharged = trusted != annotations_.trusted_lines.end() &&
                            f.severity == FindingSeverity::kError;
    if (discharged) {
      f.severity = FindingSeverity::kDischarged;
      f.discharge_reason = trusted->second;
      used_trust_lines_.insert(f.line);
    }
    if (!reported_.insert({f.address, site, f.kind}).second) return;
    Obligation o;
    o.condition = cond;
    o.status = f.severity == FindingSeverity::kError ? ObligationStatus::kOpen
                                                     : ObligationStatus::kAnnotated;
    o.unit = view_.name;
    o.address = f.address;
    o.line = f.line;
    o.instruction = f.instruction;
    o.detail = f.kind + (f.message.empty() ? "" : ": " + f.message);
    o.discharge_reason = f.discharge_reason;
    RecordObligation(f.address >= 0 ? static_cast<Word>(f.address) : 0, site,
                     std::move(o));
    findings_.push_back(std::move(f));
  }

  // Records a successfully proved obligation for a site.
  void Proved(const CfgNode& node, Condition cond, int site, std::string detail) {
    Obligation o;
    o.condition = cond;
    o.status = ObligationStatus::kProved;
    o.unit = view_.name;
    o.address = node.addr;
    o.line = program_.LineOf(node.addr);
    o.instruction = node.text;
    o.detail = std::move(detail);
    RecordObligation(node.addr, site, std::move(o));
  }

  // Merges an obligation into the ledger keyed by (address, site,
  // condition); when several contexts disagree the worst status wins
  // (open > annotated > proved), so a site proved in one context but
  // flagged in another stays an open obligation.
  void RecordObligation(Word addr, int site, Obligation o) {
    const auto key = std::tuple(addr, site, static_cast<int>(o.condition));
    auto [it, inserted] = obligation_index_.try_emplace(key, obligations_.size());
    if (inserted) {
      obligations_.push_back(std::move(o));
      return;
    }
    Obligation& existing = obligations_[it->second];
    if (static_cast<int>(o.status) > static_cast<int>(existing.status)) {
      existing = std::move(o);
    }
  }

  // Audits the annotation layer: a trust line that discharged nothing, and
  // any directive the parser did not recognize, are loud findings (outside
  // the six-condition ledger — they block certification directly).
  void ReportStaleAnnotations() {
    for (const auto& [line, text] : annotations_.unknown_directives) {
      Finding f;
      f.tool = "sepcheck";
      f.unit = view_.name;
      f.kind = "stale-annotation";
      f.line = line;
      f.message =
          Format("unrecognized sepcheck directive \"%s\"; a typo here would "
                 "silently weaken the audit trail",
                 text.c_str());
      findings_.push_back(std::move(f));
    }
    for (const auto& [line, reason] : annotations_.trusted_lines) {
      if (used_trust_lines_.count(line) != 0) continue;
      Finding f;
      f.tool = "sepcheck";
      f.unit = view_.name;
      f.kind = "stale-annotation";
      f.line = line;
      f.message = Format(
          "trust annotation (\"%s\") discharged nothing: the analyzer proves "
          "this line safe (or the line has no finding to discharge); delete "
          "the annotation",
          reason.c_str());
      findings_.push_back(std::move(f));
    }
  }

  // Guarantees every condition appears in the ledger: conditions with no
  // relevant site in this regime are vacuously discharged.
  void FillVacuousObligations() {
    bool seen[kConditionCount] = {};
    for (const Obligation& o : obligations_) {
      seen[static_cast<int>(o.condition)] = true;
    }
    for (int c = 0; c < kConditionCount; ++c) {
      if (seen[c]) continue;
      Obligation o;
      o.condition = static_cast<Condition>(c);
      o.status = ObligationStatus::kProved;
      o.unit = view_.name;
      o.detail = "no relevant operations in this regime (vacuously discharged)";
      obligations_.push_back(std::move(o));
    }
  }

  Finding MakeFinding(const CfgNode& node, const std::string& kind,
                      const std::string& message) const {
    Finding f;
    f.tool = "sepcheck";
    f.unit = view_.name;
    f.kind = kind;
    f.address = node.addr;
    f.instruction = node.text;
    f.message = message;
    f.witness = cfg_.WitnessTo(node.addr);
    return f;
  }

  // --- checks -----------------------------------------------------------------

  bool IntersectsCode(const AbsVal& a) const {
    auto it = cfg_.code_words.lower_bound(static_cast<Word>(a.lo));
    return it != cfg_.code_words.end() && *it <= a.hi;
  }

  std::string DescribeRegion(const AbsVal& a) const {
    if (a.hi < 0x2000) {
      return Format("page 0 beyond partition end 0x%04X",
                    static_cast<unsigned>(view_.mem_words));
    }
    if (a.lo >= kDeviceWindowBase) {
      return view_.device_window_words == 0 ? "device window (no devices owned)"
                                            : "beyond device-register window";
    }
    return "unmapped address space";
  }

  void CheckAccess(const CfgNode& node, const AbsVal& a, bool write, int site,
                   Condition cond) {
    const char* rw = write ? "write" : "read";
    if (a.IsTop()) {
      Finding f = MakeFinding(node, Format("unbounded-%s", rw),
                              "address cannot be bounded by the abstract domain");
      f.region = "unknown";
      Report(std::move(f), cond, site);
      return;
    }
    if (a.hi < view_.mem_words) {
      if (write && IntersectsCode(a)) {
        Finding f = MakeFinding(node, "self-modifying-code",
                                "store can overwrite the program's own instructions; "
                                "rejected, not analyzed");
        f.region = a.ToString() + " within code image";
        Report(std::move(f), Condition::kMemoryPartition, site);
        return;
      }
      Proved(node, cond, site,
             Format("%s %s stays inside the %u-word partition", rw,
                    a.ToString().c_str(), static_cast<unsigned>(view_.mem_words)));
      return;  // own partition
    }
    if (view_.device_window_words > 0 && a.lo >= kDeviceWindowBase &&
        a.hi < kDeviceWindowBase + view_.device_window_words) {
      Proved(node, Condition::kIoExclusivity, site,
             Format("device-register %s %s stays inside the regime's own "
                    "%u-word window",
                    rw, a.ToString().c_str(),
                    static_cast<unsigned>(view_.device_window_words)));
      return;  // own device-register window
    }
    for (const RingWindow& w : ring_windows_) {
      if (a.lo < w.vbase || a.hi >= w.vbase + w.words) continue;
      const SharedRingConfig& rc = view_.shared_rings[static_cast<std::size_t>(w.ring)];
      if (write && !w.writable) {
        // The MMU would fault this at run time; statically it is a
        // violation of the ring's one-directional discipline.
        Finding f = MakeFinding(
            node, "ring-window-write",
            Format("store into shared ring %d (\"%s\") through the CONSUMER's "
                   "read-only window; only the producer may write payload",
                   w.ring, rc.name.c_str()));
        f.region = a.ToString() + Format(": shared-ring %d data window", w.ring);
        Report(std::move(f), Condition::kChannelExclusivity, site);
        return;
      }
      Proved(node, Condition::kChannelExclusivity, site,
             Format("%s %s stays inside the regime's own shared-ring %d "
                    "(\"%s\") %s window",
                    rw, a.ToString().c_str(), w.ring, rc.name.c_str(),
                    w.writable ? "read-write producer" : "read-only consumer"));
      return;  // own shared-ring data window
    }
    Finding f = MakeFinding(node, Format("out-of-regime-%s", rw),
                            Format("%s outside the regime's memory map", rw));
    f.region = a.ToString() + ": " + DescribeRegion(a);
    Report(std::move(f), cond, site);
  }

  void CheckChannelCall(const CfgNode& node, const AbsState& s, std::uint16_t code) {
    const AbsVal chan = EffectiveReg(s, 0);
    const int nchan = static_cast<int>(view_.channels.size());
    const char* call = code == kCallSend    ? "SEND"
                       : code == kCallRecv  ? "RECV"
                       : code == kCallSendv ? "SENDV"
                       : code == kCallRecvv ? "RECVV"
                                            : "STAT";
    if (chan.IsTop() || chan.Width() > kMaxChannelFanout) {
      Finding f = MakeFinding(
          node, "unprovable-channel",
          Format("%s channel index cannot be bounded (R0 = %s)", call,
                 chan.ToString().c_str()));
      f.region = "kernel channel table";
      Report(std::move(f), Condition::kChannelExclusivity, kSiteChannelBase - 1);
      return;
    }
    for (std::uint32_t k = chan.lo; k <= chan.hi; ++k) {
      const int site = kSiteChannelBase + static_cast<int>(k);
      if (k >= static_cast<std::uint32_t>(nchan)) {
        Finding f = MakeFinding(node, "channel-out-of-range",
                                Format("%s on channel %u but only %d configured", call,
                                       k, nchan));
        f.region = "kernel channel table";
        Report(std::move(f), Condition::kChannelExclusivity, site);
        continue;
      }
      const ChannelConfig& cc = view_.channels[k];
      const bool sends = code == kCallSend || code == kCallSendv;
      const bool recvs = code == kCallRecv || code == kCallRecvv;
      const bool is_sender = cc.sender == view_.index;
      const bool is_receiver = cc.receiver == view_.index;
      if ((sends && !is_sender) || (recvs && !is_receiver) ||
          (code == kCallStat && !is_sender && !is_receiver)) {
        Finding f = MakeFinding(
            node, "channel-not-owned",
            Format("%s on channel %u (\"%s\") owned by other regimes", call, k,
                   cc.name.c_str()));
        f.region = Format("channel %u %s end", k, sends ? "sender" : "receiver");
        Report(std::move(f), Condition::kChannelExclusivity, site);
        continue;
      }
      Proved(node, Condition::kChannelExclusivity, site,
             Format("%s on channel %u (\"%s\"): this regime is the configured "
                    "%s end",
                    call, k, cc.name.c_str(),
                    sends || (code == kCallStat && is_sender) ? "sender"
                                                              : "receiver"));
      if (sends || (code == kCallStat && is_sender)) {
        ring_touches_.insert({static_cast<int>(k), 0});
      }
      if (recvs || (code == kCallStat && is_receiver)) {
        ring_touches_.insert({static_cast<int>(k), 1});
      }
    }
  }

  // SENDV/RECVV descriptor table: R2 entries of (vaddr, words) pairs at
  // regime vaddr R1, all inside the caller's partition. The kernel
  // re-validates every entry at run time and faults on any violation; what
  // can be discharged statically is the table extent itself (the payload
  // extents are memory CONTENTS, which the domain does not track).
  void CheckSgTable(const CfgNode& node, const AbsState& s) {
    const AbsVal count = EffectiveReg(s, 2);
    if (count.IsTop() || count.lo == 0 || count.hi > kMaxBatchDescriptors) {
      Finding f = MakeFinding(
          node, "sg-bad-count",
          Format("descriptor count R2 = %s not provably in [1, %d]; the kernel "
                 "faults the regime on a bad count",
                 count.ToString().c_str(), kMaxBatchDescriptors));
      f.region = "scatter-gather descriptor table";
      Report(std::move(f), Condition::kKernelCallLegality, kSiteSgTable);
      return;
    }
    const AbsVal table = EffectiveReg(s, 1);
    // The kernel reads [R1, R1 + 2*R2 - 1] on the caller's behalf.
    const AbsVal span = AbsVal::Add(
        table, AbsVal::Range(0, 2 * count.hi - 1));
    CheckAccess(node, span, /*write=*/false, kSiteSgTable,
                Condition::kMemoryPartition);
  }

  void CheckSharedRingCall(const CfgNode& node, const AbsState& s, std::uint16_t code) {
    const AbsVal ring = EffectiveReg(s, 0);
    const int nrings = static_cast<int>(view_.shared_rings.size());
    const char* call = code == kCallRingPut   ? "RINGPUT"
                       : code == kCallRingGet ? "RINGGET"
                                              : "RINGSTAT";
    if (ring.IsTop() || ring.Width() > kMaxChannelFanout) {
      Finding f = MakeFinding(
          node, "unprovable-ring",
          Format("%s ring index cannot be bounded (R0 = %s)", call,
                 ring.ToString().c_str()));
      f.region = "kernel shared-ring table";
      Report(std::move(f), Condition::kChannelExclusivity, kSiteRingBase - 1);
      return;
    }
    for (std::uint32_t k = ring.lo; k <= ring.hi; ++k) {
      const int site = kSiteRingBase + static_cast<int>(k);
      if (k >= static_cast<std::uint32_t>(nrings)) {
        Finding f = MakeFinding(
            node, "ring-out-of-range",
            Format("%s on shared ring %u but only %d configured", call, k, nrings));
        f.region = "kernel shared-ring table";
        Report(std::move(f), Condition::kChannelExclusivity, site);
        continue;
      }
      const SharedRingConfig& rc = view_.shared_rings[k];
      const bool is_producer = rc.producer == view_.index;
      const bool is_consumer = rc.consumer == view_.index;
      if ((code == kCallRingPut && !is_producer) ||
          (code == kCallRingGet && !is_consumer) ||
          (code == kCallRingStat && !is_producer && !is_consumer)) {
        Finding f = MakeFinding(
            node, "ring-not-owned",
            Format("%s on shared ring %u (\"%s\") owned by other regimes", call, k,
                   rc.name.c_str()));
        f.region = Format("shared ring %u %s end", k,
                          code == kCallRingPut ? "producer" : "consumer");
        Report(std::move(f), Condition::kChannelExclusivity, site);
        continue;
      }
      Proved(node, Condition::kChannelExclusivity, site,
             Format("%s on shared ring %u (\"%s\"): this regime is the "
                    "configured %s end",
                    call, k, rc.name.c_str(),
                    code == kCallRingPut || (code == kCallRingStat && is_producer)
                        ? "producer"
                        : "consumer"));
    }
  }

  void CheckTrap(const CfgNode& node, const AbsState& s) {
    const std::uint16_t code = node.insn.trap_code;
    if (view_.bare) return;
    bool legal = true;
    switch (code) {
      case kCallSwap:
      case kCallAwait:
      case kCallReti:
      case kCallHalt:
      case kCallGetId:
        break;
      case kCallSend:
      case kCallRecv:
      case kCallStat:
        CheckChannelCall(node, s, code);
        break;
      case kCallSendv:
      case kCallRecvv:
        CheckChannelCall(node, s, code);
        CheckSgTable(node, s);
        break;
      case kCallRingPut:
      case kCallRingGet:
      case kCallRingStat:
        CheckSharedRingCall(node, s, code);
        break;
      case kCallSetVec: {
        const AbsVal dev = EffectiveReg(s, 0);
        const AbsVal handler = EffectiveReg(s, 1);
        bool routed = true;
        if (dev.IsTop() ||
            dev.hi >= static_cast<std::uint32_t>(view_.device_slots)) {
          Finding f = MakeFinding(
              node, "setvec-bad-device",
              Format("SETVEC device index %s not within the regime's %d local devices",
                     dev.ToString().c_str(), view_.device_slots));
          f.region = "kernel vector table";
          Report(std::move(f), Condition::kInterruptRouting, kSiteSetvec);
          routed = false;
        }
        if (!handler.IsConst()) {
          Finding f = MakeFinding(
              node, "unprovable-handler",
              Format("SETVEC handler address %s is not a static constant; handler "
                     "code cannot be analyzed",
                     handler.ToString().c_str()));
          f.region = "kernel vector table";
          Report(std::move(f), Condition::kInterruptRouting, kSiteSetvec);
          routed = false;
        } else if (handler.ConstVal() >= view_.mem_words) {
          Finding f = MakeFinding(node, "setvec-bad-handler",
                                  "SETVEC handler address outside the partition");
          f.region = "kernel vector table";
          Report(std::move(f), Condition::kInterruptRouting, kSiteSetvec);
          routed = false;
        }
        if (routed) {
          Proved(node, Condition::kInterruptRouting, kSiteSetvec,
                 Format("SETVEC binds local device %s to handler %s inside the "
                        "partition; the handler entry is lifted and analyzed",
                        dev.ToString().c_str(), handler.ToString().c_str()));
        }
        break;
      }
      default: {
        Finding f = MakeFinding(node, "unknown-kernel-call",
                                Format("TRAP %u is not a kernel call; the kernel "
                                       "faults the regime",
                                       code));
        f.region = "kernel entry table";
        Report(std::move(f), Condition::kKernelCallLegality, kSiteTrapLegal);
        legal = false;
        break;
      }
    }
    if (legal) {
      Proved(node, Condition::kKernelCallLegality, kSiteTrapLegal,
             Format("TRAP %u enters the kernel at a defined call gate", code));
      Proved(node, Condition::kRegisterSave, kSiteTrapRegisterSave,
             "kernel entry saves and kernel exit restores the full register "
             "file (the verified swap path of E2-E4)");
    }
  }

  void CheckNode(const CfgNode& node, const AbsState& s) {
    const Opcode op = node.insn.opcode;

    if (!view_.bare &&
        (op == Opcode::kHalt || op == Opcode::kWait || op == Opcode::kRti)) {
      Report(MakeFinding(node, "privileged-instruction",
                         Format("%s is privileged; in user mode it traps and the "
                                "kernel faults the regime",
                                OpcodeName(op))),
             Condition::kKernelCallLegality, kSiteControl);
      return;
    }

    // Writes to PC through data instructions are control flow the CFG does
    // not model; reject them like indirect jumps.
    const bool writes_dst = op == Opcode::kMov || op == Opcode::kAdd ||
                            op == Opcode::kSub || op == Opcode::kBic ||
                            op == Opcode::kBis || op == Opcode::kXor ||
                            op == Opcode::kClr || op == Opcode::kInc ||
                            op == Opcode::kDec || op == Opcode::kNeg ||
                            op == Opcode::kCom || op == Opcode::kAsr ||
                            op == Opcode::kAsl;
    const bool reads_dst = writes_dst ? (op != Opcode::kMov && op != Opcode::kClr)
                                      : (op == Opcode::kCmp || op == Opcode::kBit ||
                                         op == Opcode::kTst);
    const bool has_dst = writes_dst || reads_dst;
    const bool has_src = op == Opcode::kMov || op == Opcode::kAdd ||
                         op == Opcode::kSub || op == Opcode::kCmp ||
                         op == Opcode::kBit || op == Opcode::kBic ||
                         op == Opcode::kBis || op == Opcode::kXor;

    if (has_src) {
      OperandInfo src = EvalOperand(node, true, s);
      if (src.kind == OperandInfo::Kind::kMem) {
        CheckAccess(node, src.mem_addr, /*write=*/false, kSiteSrc,
                    Condition::kMemoryPartition);
      }
    }
    if (has_dst) {
      OperandInfo dst = EvalOperand(node, false, s);
      if (dst.kind == OperandInfo::Kind::kMem) {
        if (reads_dst) {
          CheckAccess(node, dst.mem_addr, /*write=*/false, kSiteDst,
                      Condition::kMemoryPartition);
        }
        if (writes_dst) {
          CheckAccess(node, dst.mem_addr, /*write=*/true, kSiteDst,
                      Condition::kMemoryPartition);
        }
      } else if (dst.kind == OperandInfo::Kind::kReg && dst.reg == kPc &&
                 writes_dst) {
        Report(MakeFinding(node, "pc-write",
                           "data instruction targets PC; computed control flow is "
                           "rejected, not analyzed"),
               Condition::kMemoryPartition, kSiteDst);
      }
    }

    // JSR/RTS keep the guest's register-save area (its stack) inside its
    // own partition — the per-guest half of the register-save condition.
    if (op == Opcode::kJsr) {
      CheckAccess(node, AbsVal::Sub(EffectiveReg(s, kSp), AbsVal::Const(1)),
                  /*write=*/true, kSiteStack, Condition::kRegisterSave);
    } else if (op == Opcode::kRts) {
      CheckAccess(node, EffectiveReg(s, kSp), /*write=*/false, kSiteStack,
                  Condition::kRegisterSave);
    } else if (op == Opcode::kTrap) {
      CheckTrap(node, s);
    }
  }

  std::vector<Word> DiscoverHandlers() {
    std::vector<Word> out;
    for (const auto& [key, s] : in_) {
      if (!s.reachable) continue;
      auto it = cfg_.nodes.find(key.first);
      if (it == cfg_.nodes.end()) continue;
      const CfgNode& node = it->second;
      if (node.insn.opcode != Opcode::kTrap || node.insn.trap_code != kCallSetVec) {
        continue;
      }
      const AbsVal handler = EffectiveReg(s, 1);
      if (handler.IsConst() && handler.ConstVal() < view_.mem_words) {
        out.push_back(handler.ConstVal());
      }
    }
    return out;
  }

  const AssembledProgram& program_;
  const RegimeView& view_;
  Annotations annotations_;
  Cfg cfg_;
  std::vector<Ctx> contexts_;
  std::map<Word, int> ctx_of_site_;
  std::vector<std::set<int>> parents_;           // per context: caller contexts
  std::map<StateKey, AbsState> rts_outs_;        // latest RTS out-state per context
  std::map<StateKey, AbsState> in_;
  std::map<std::tuple<Word, Word, int>, int> join_counts_;  // (from, to, to_ctx)
  std::vector<std::uint32_t> widen_thresholds_;  // sorted widening landmarks
  std::vector<Finding> findings_;
  std::set<std::tuple<int, int, std::string>> reported_;  // (addr, site, kind)
  std::set<int> used_trust_lines_;
  std::vector<Obligation> obligations_;
  std::map<std::tuple<Word, int, int>, std::size_t> obligation_index_;
  std::set<std::pair<int, int>> ring_touches_;
  // This regime's shared-ring data windows (MMU pages kSharedRingPageBase..).
  struct RingWindow {
    int ring;
    std::uint32_t vbase;
    std::uint32_t words;
    bool writable;  // producer end; the consumer's window is read-only
  };
  std::vector<RingWindow> ring_windows_;
};

}  // namespace

ProgramAnalysis AnalyzeProgram(const AssembledProgram& program, const std::string& source,
                               const RegimeView& view) {
  return ProgramAnalyzer(program, source, view).Run();
}

Result<SystemAnalysis> AnalyzeSystem(const SystemSpec& spec) {
  SystemAnalysis out;
  // Physical ring object -> set of regimes whose code addresses it. With
  // cut channels the object is the (channel, end) pair; uncut, both ends
  // collapse onto ring 0 — the paper's shared X.
  std::map<std::pair<int, int>, std::set<int>> ring_users;
  Annotations merged;

  for (std::size_t r = 0; r < spec.regimes.size(); ++r) {
    const SystemSpec::Regime& regime = spec.regimes[r];
    Result<AssembledProgram> program = Assemble(regime.source);
    if (!program.ok()) {
      return Err(Format("regime %s: %s", regime.name.c_str(), program.error().c_str()));
    }
    RegimeView view;
    view.name = regime.name;
    view.index = static_cast<int>(r);
    view.mem_words = regime.mem_words;
    view.device_window_words =
        static_cast<std::uint32_t>(regime.device_slots) * kDeviceRegSpan;
    view.device_slots = regime.device_slots;
    view.channels = spec.channels;
    view.shared_rings = spec.shared_rings;
    ProgramAnalysis pa = AnalyzeProgram(*program, regime.source, view);
    for (Finding& f : pa.findings) out.findings.push_back(std::move(f));
    for (Obligation& o : pa.obligations) out.obligations.push_back(std::move(o));
    for (const auto& [channel, end] : pa.ring_touches) {
      const int object_end = spec.cut_channels ? end : 0;
      ring_users[{channel, object_end}].insert(static_cast<int>(r));
    }
    Annotations ann = ParseAnnotations(regime.source);
    for (const auto& [k, reason] : ann.disjoint_channels) {
      merged.disjoint_channels.emplace(k, reason);
      auto line = ann.disjoint_channel_lines.find(k);
      if (line != ann.disjoint_channel_lines.end()) {
        merged.disjoint_channel_lines.emplace(k, line->second);
      }
    }
    for (const auto& [k, reason] : ann.shared_rings) {
      merged.shared_rings.emplace(k, reason);
      auto line = ann.shared_ring_lines.find(k);
      if (line != ann.shared_ring_lines.end()) {
        merged.shared_ring_lines.emplace(k, line->second);
      }
    }
  }

  // Wire-cut discipline: every physical ring object may be addressed by at
  // most one regime's code. Cut channels satisfy this by construction
  // (X1 for the sender, X2 for the receiver); an uncut channel whose both
  // ends are used collapses to one object with two users — flagged.
  for (const auto& [object, users] : ring_users) {
    const auto& [channel, end] = object;
    const std::string channel_name =
        channel < static_cast<int>(spec.channels.size())
            ? spec.channels[static_cast<std::size_t>(channel)].name
            : Format("#%d", channel);
    Obligation o;
    o.condition = Condition::kChannelExclusivity;
    o.unit = spec.name;
    if (users.size() <= 1) {
      o.status = ObligationStatus::kProved;
      o.detail = Format(
          "channel %d (\"%s\") ring %d is addressed by exactly one regime",
          channel, channel_name.c_str(), end);
      out.obligations.push_back(std::move(o));
      continue;
    }
    Finding f;
    f.tool = "sepcheck";
    f.unit = spec.name;
    f.kind = "shared-channel-object";
    f.condition = ConditionSlug(Condition::kChannelExclusivity);
    std::string names;
    for (int u : users) {
      if (!names.empty()) names += ", ";
      names += spec.regimes[static_cast<std::size_t>(u)].name;
    }
    f.region = Format("channel %d (\"%s\") ring %d", channel, channel_name.c_str(), end);
    f.message = Format(
        "uncut channel: one ring object is addressed by %zu regimes (%s); "
        "syntactic separability cannot be concluded",
        users.size(), names.c_str());
    auto it = merged.disjoint_channels.find(channel);
    if (it != merged.disjoint_channels.end()) {
      f.severity = FindingSeverity::kDischarged;
      f.discharge_reason = it->second;
    }
    o.status = f.severity == FindingSeverity::kDischarged
                   ? ObligationStatus::kAnnotated
                   : ObligationStatus::kOpen;
    o.detail = f.kind + ": " + f.message;
    o.discharge_reason = f.discharge_reason;
    out.obligations.push_back(std::move(o));
    out.findings.push_back(std::move(f));
  }

  // Shared rings are, BY CONSTRUCTION, one memory object mapped into both
  // endpoints: the producer writes payload through its read-write window,
  // the consumer reads it through its read-only one. No wire-cutting
  // applies — the object is shared whether or not any instruction touches
  // it (the MMU maps it at boot) — so every configured ring is flagged,
  // and the analyst discharges it with a `shared-ring <k>` annotation
  // arguing the MMU's asymmetric mapping plus the kernel's head/tail
  // ownership discipline keep the object one-directional.
  for (std::size_t k = 0; k < spec.shared_rings.size(); ++k) {
    const SharedRingConfig& rc = spec.shared_rings[k];
    Finding f;
    f.tool = "sepcheck";
    f.unit = spec.name;
    f.kind = "shared-ring-object";
    f.condition = ConditionSlug(Condition::kChannelExclusivity);
    auto name_of = [&spec](int r) {
      return r >= 0 && r < static_cast<int>(spec.regimes.size())
                 ? spec.regimes[static_cast<std::size_t>(r)].name
                 : Format("#%d", r);
    };
    f.region = Format("shared ring %zu (\"%s\") data object", k, rc.name.c_str());
    f.message = Format(
        "shared ring: one %u-word object is mapped into %s (read-write) and "
        "%s (read-only); syntactic separability cannot be concluded",
        rc.capacity, name_of(rc.producer).c_str(), name_of(rc.consumer).c_str());
    auto it = merged.shared_rings.find(static_cast<int>(k));
    if (it != merged.shared_rings.end()) {
      f.severity = FindingSeverity::kDischarged;
      f.discharge_reason = it->second;
    }
    Obligation o;
    o.condition = Condition::kChannelExclusivity;
    o.unit = spec.name;
    o.status = f.severity == FindingSeverity::kDischarged
                   ? ObligationStatus::kAnnotated
                   : ObligationStatus::kOpen;
    o.detail = f.kind + ": " + f.message;
    o.discharge_reason = f.discharge_reason;
    out.obligations.push_back(std::move(o));
    out.findings.push_back(std::move(f));
  }

  // Audit the wire-cut annotation layer: a disjoint-channel directive for a
  // channel the configuration does not even have can discharge nothing.
  for (const auto& [k, reason] : merged.disjoint_channels) {
    if (k < static_cast<int>(spec.channels.size())) continue;
    Finding f;
    f.tool = "sepcheck";
    f.unit = spec.name;
    f.kind = "stale-annotation";
    auto line = merged.disjoint_channel_lines.find(k);
    if (line != merged.disjoint_channel_lines.end()) f.line = line->second;
    f.message = Format(
        "disjoint-channel %d (\"%s\") names a channel this configuration "
        "does not have (%zu configured)",
        k, reason.c_str(), spec.channels.size());
    out.findings.push_back(std::move(f));
  }
  for (const auto& [k, reason] : merged.shared_rings) {
    if (k < static_cast<int>(spec.shared_rings.size())) continue;
    Finding f;
    f.tool = "sepcheck";
    f.unit = spec.name;
    f.kind = "stale-annotation";
    auto line = merged.shared_ring_lines.find(k);
    if (line != merged.shared_ring_lines.end()) f.line = line->second;
    f.message = Format(
        "shared-ring %d (\"%s\") names a ring this configuration does not "
        "have (%zu configured)",
        k, reason.c_str(), spec.shared_rings.size());
    out.findings.push_back(std::move(f));
  }

  out.certified = Certified(out.findings);
  return out;
}

}  // namespace sep::sepcheck

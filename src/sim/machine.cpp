#include "sim/machine.hpp"

#include "common/bits.hpp"
#include "isa/encoding.hpp"
#include "isa/operands.hpp"

namespace masc {

namespace {

/// Non-pipelined execution spends one cycle per classic stage with no
/// overlap (the pre-[7] ASC Processor baseline).
constexpr unsigned kSerialCpi = 5;
/// Taken control transfer: resolve at EX end (i+1), refetch IF (i+2),
/// ID (i+3), issue at i+4 — three bubble cycles for the thread.
constexpr unsigned kTakenPenalty = 4;
/// Untaken branch: the buffered fall-through may issue once the branch
/// has resolved at the end of EX — one bubble cycle.
constexpr unsigned kUntakenPenalty = 2;
/// A freshly spawned (or join-woken) thread refills IF/ID before issuing.
constexpr unsigned kStartupPenalty = 4;

/// Reductions routed through the maximum/minimum unit (affected by the
/// MaxMinUnitKind option).
bool uses_maxmin_unit(const Instruction& in) {
  if (in.op != Opcode::kRed) return false;
  const auto f = static_cast<RedFunct>(in.funct);
  return f == RedFunct::kMax || f == RedFunct::kMin ||
         f == RedFunct::kMaxU || f == RedFunct::kMinU;
}

}  // namespace

Machine::Machine(const MachineConfig& cfg)
    : state_(cfg), scoreboard_(cfg, cfg.effective_threads()) {
  tstate_.assign(cfg.effective_threads(), ThreadIssueState{});
  stats_.issued_by_thread.assign(cfg.effective_threads(), 0);
  stats_.thread_stalls.assign(cfg.effective_threads(), {});
  if ((cfg.multiplier == MultiplierKind::kNone)) {
    // Validity of MUL usage is checked at issue.
  }
}

void Machine::load(const Program& program) {
  state_.load(program);
  tstate_[0].ready_at = 0;
  tstate_[0].pending_since = 0;
  // Predecode the whole text once: decode + operand analysis + the
  // config-resolved latency offsets. The issue stage then never touches
  // the decoder again (hardware re-decodes every cycle; the host result
  // is identical because instruction memory is immutable).
  predecoded_.clear();
  predecoded_.reserve(program.text.size());
  for (const InstrWord w : program.text) predecoded_.push_back(make_entry(w));
  fallback_pc_ = ~Addr{0};
}

Machine::DecodedEntry Machine::make_entry(InstrWord word) const {
  DecodedEntry de;
  try {
    de.instr = decode(word);
  } catch (const DecodeError&) {
    // Defer the error to the cycle that actually reaches this PC (seed
    // semantics: decode errors surface at execution, not at load).
    de.valid = false;
    return de;
  }
  de.valid = true;
  de.info = operands_of(de.instr);
  de.avail_off = avail_offset(de.instr);
  de.ex_off = ex_offset(de.instr);
  de.uses_falkoff_maxmin =
      uses_maxmin_unit(de.instr) && config().maxmin_unit == MaxMinUnitKind::kFalkoff;
  return de;
}

bool Machine::finished() const {
  return (halted_ && now_ >= drain_end_) || all_exited_;
}

void Machine::enable_trace(std::size_t max_entries) {
  tracing_ = true;
  trace_capacity_ = max_entries;
  trace_.reserve(max_entries);
}

const Machine::DecodedEntry& Machine::decoded(ThreadId /*t*/, Addr pc) {
  if (pc < predecoded_.size()) {
    const DecodedEntry& de = predecoded_[pc];
    // Re-run the decoder so the original DecodeError surfaces exactly
    // where the seed simulator would have thrown it.
    if (!de.valid) decode(state_.fetch(pc));
    return de;
  }
  // Wild jump past the text: zeroed instruction memory, not worth a
  // table — decode through the single-slot fallback cache.
  if (fallback_pc_ != pc) {
    fallback_entry_ = make_entry(state_.fetch(pc));
    if (!fallback_entry_.valid) decode(state_.fetch(pc));
    fallback_pc_ = pc;
  }
  return fallback_entry_;
}

unsigned Machine::avail_offset(const Instruction& in) const {
  const auto& cfg = config();
  const unsigned b = cfg.broadcast_latency();
  const unsigned r = cfg.reduction_latency();
  const unsigned w = cfg.word_width;

  switch (in.instr_class()) {
    case InstrClass::kScalar: {
      if (in.op == Opcode::kLw) return 2;  // end of MA
      if (in.op == Opcode::kSAlu) {
        const auto f = static_cast<AluFunct>(in.funct);
        if (f == AluFunct::kMul)
          return cfg.multiplier == MultiplierKind::kSequential ? w : 2;
        if (alu_uses_div(f)) return w;
      }
      return 1;  // end of EX
    }
    case InstrClass::kParallel: {
      if (in.op == Opcode::kPLw) return b + 3;  // end of PE MA
      if (in.op == Opcode::kPAlu || in.op == Opcode::kPAluS) {
        const auto f = static_cast<AluFunct>(in.funct);
        if (f == AluFunct::kMul)
          return cfg.multiplier == MultiplierKind::kSequential ? b + 1 + w : b + 3;
        if (alu_uses_div(f)) return b + 1 + w;
      }
      return b + 2;  // end of PE EX
    }
    case InstrClass::kReduction:
      // Falkoff-style max/min: bit-serial, one bit of the word per cycle
      // after the operands reach the array (the predecessor processors'
      // design, §6.4).
      if (uses_maxmin_unit(in) && cfg.maxmin_unit == MaxMinUnitKind::kFalkoff)
        return b + 1 + w;
      // End of the last reduction stage; architectural WB is one later.
      return b + r + 1;
  }
  return 1;
}

unsigned Machine::ex_offset(const Instruction& in) const {
  return in.instr_class() == InstrClass::kScalar
             ? 1
             : config().broadcast_latency() + 2;
}

Machine::HazardCheck Machine::earliest_issue(ThreadId t, const DecodedEntry& de) {
  const auto& cfg = config();
  const unsigned b = cfg.broadcast_latency();
  HazardCheck hc;
  hc.earliest = tstate_[t].ready_at;

  const Instruction& in = de.instr;
  const OperandInfo& info = de.info;

  auto raise = [&](Cycle e, StallCause c) {
    if (e > hc.earliest) {
      hc.earliest = e;
      hc.cause = c;
    }
  };

  auto classify_raw = [&](InstrClass producer, ReadPoint at) {
    if (producer == InstrClass::kReduction)
      return at == ReadPoint::kScalarEx ? StallCause::kReductionHazard
                                        : StallCause::kBroadcastReductionHazard;
    return StallCause::kDataHazard;
  };

  // RAW hazards. A value forwardable at the end of cycle A can feed a
  // consumer stage occurring in cycle A+1 or later; consumer stages are
  // EX/B1 at i+1 (delta 0) and the PE read/execute point at i+b+2
  // (delta b+1), so the constraint is i >= A - delta.
  for (std::uint32_t k = 0; k < info.num_reads; ++k) {
    const RegRead& rr = info.reads[k];
    if (rr.ref.hardwired()) continue;
    const auto& entry = scoreboard_.lookup(t, rr.ref);
    if (entry.avail == 0) continue;
    const Cycle delta = rr.at == ReadPoint::kParallelRead ? b + 1 : 0;
    const Cycle need = entry.avail > delta ? entry.avail - delta : 0;
    raise(need, classify_raw(entry.producer, rr.at));
  }

  // Inter-thread transfers touch the *target* thread's registers; the
  // target id is a read operand, so its functional value is valid by now.
  if (in.op == Opcode::kTMov) {
    const Word target = state_.sreg(t, in.rt);
    if (target < state_.num_threads()) {
      if (static_cast<TMovFunct>(in.funct) == TMovFunct::kGet) {
        const auto& entry =
            scoreboard_.lookup(target, RegRef{RegSpace::kScalarGpr, in.rs});
        if (entry.avail != 0)
          raise(entry.avail, classify_raw(entry.producer, ReadPoint::kScalarEx));
      } else {
        const auto& entry =
            scoreboard_.lookup(target, RegRef{RegSpace::kScalarGpr, in.rd});
        if (entry.avail != 0) raise(entry.avail, StallCause::kWawHazard);
      }
    }
  }

  // WAW ordering: a register's visible values must appear in program
  // order, so a new writer may not become available before the pending
  // writer (interlock; matters when a short-latency write follows a
  // reduction to the same register).
  if (info.write && !info.write->hardwired()) {
    const auto& pending = scoreboard_.lookup(t, *info.write);
    if (pending.avail != 0) {
      const unsigned off = de.avail_off;
      const Cycle need = pending.avail + 1 > off ? pending.avail + 1 - off : 0;
      raise(need, StallCause::kWawHazard);
    }
  }

  // Structural hazards on the shared sequential multiplier/divider.
  const bool seq_mul = cfg.multiplier == MultiplierKind::kSequential;
  const bool seq_div = cfg.divider == DividerKind::kSequential;
  if ((info.uses_scalar_mul && seq_mul) || (info.uses_scalar_div && seq_div)) {
    const unsigned off = de.ex_off;
    const Cycle need = scalar_muldiv_free_ > off ? scalar_muldiv_free_ - off : 0;
    raise(need, StallCause::kStructuralHazard);
  }
  if ((info.uses_pe_mul && seq_mul) || (info.uses_pe_div && seq_div)) {
    const unsigned off = de.ex_off;
    const Cycle need = pe_muldiv_free_ > off ? pe_muldiv_free_ - off : 0;
    raise(need, StallCause::kStructuralHazard);
  }
  if (de.uses_falkoff_maxmin) {
    // The bit-serial unit serves one operation at a time, so concurrent
    // max/min requests from different threads collide — the §6.4 stall
    // the pipelined tree was introduced to remove.
    const unsigned off = de.ex_off;
    const Cycle need = falkoff_free_ > off ? falkoff_free_ - off : 0;
    raise(need, StallCause::kStructuralHazard);
  }

  if (hc.earliest == tstate_[t].ready_at && hc.cause == StallCause::kNone &&
      tstate_[t].ready_at > now_)
    hc.cause = StallCause::kControlPenalty;
  return hc;
}

void Machine::issue(ThreadId t, const DecodedEntry& de) {
  const auto& cfg = config();
  auto& ts = tstate_[t];
  auto& ctx = state_.thread(t);
  const Addr pc = ctx.pc;
  const Instruction& in = de.instr;
  const OperandInfo& info = de.info;

  // Illegal-unit checks (configuration-dependent instruction validity).
  if ((info.uses_scalar_mul || info.uses_pe_mul) &&
      cfg.multiplier == MultiplierKind::kNone)
    throw SimulationError("MUL executed but no multiplier configured");
  if ((info.uses_scalar_div || info.uses_pe_div) &&
      cfg.divider == DividerKind::kNone)
    throw SimulationError("DIV/REM executed but no divider configured");

  const ExecResult res = execute(state_, t, pc, in);
  const Cycle avail = now_ + de.avail_off;

  // Record the destination in the instruction status table.
  const InstrClass cls = in.instr_class();
  if (info.write && !info.write->hardwired())
    scoreboard_.record_write(t, *info.write, avail, cls);
  if (in.op == Opcode::kTMov &&
      static_cast<TMovFunct>(in.funct) == TMovFunct::kPut) {
    const Word target = state_.sreg(t, in.rt);
    if (target < state_.num_threads() && in.rd != 0)
      scoreboard_.record_write(static_cast<ThreadId>(target),
                               RegRef{RegSpace::kScalarGpr, in.rd}, avail,
                               InstrClass::kScalar);
  }

  // Occupy sequential units.
  const bool seq_mul = cfg.multiplier == MultiplierKind::kSequential;
  const bool seq_div = cfg.divider == DividerKind::kSequential;
  if ((info.uses_scalar_mul && seq_mul) || (info.uses_scalar_div && seq_div))
    scalar_muldiv_free_ = avail + 1;
  if ((info.uses_pe_mul && seq_mul) || (info.uses_pe_div && seq_div))
    pe_muldiv_free_ = avail + 1;
  if (de.uses_falkoff_maxmin) falkoff_free_ = avail + 1;

  // Thread continuation.
  ctx.pc = res.next_pc;
  Cycle next_ready = now_ + 1;
  if (!cfg.pipelined_execution) next_ready = now_ + kSerialCpi;
  if (in.is_branch())
    next_ready = now_ + (res.taken_branch ? kTakenPenalty : kUntakenPenalty);
  if (res.blocked_join) {
    ctx.state = ThreadState::kWaiting;
    ctx.join_target = res.join_target;
  }
  if (res.exited) {
    ctx.state = ThreadState::kFree;
    // Wake joiners.
    for (ThreadId j = 0; j < state_.num_threads(); ++j) {
      auto& jc = state_.thread(j);
      if (jc.state == ThreadState::kWaiting && jc.join_target == t) {
        jc.state = ThreadState::kActive;
        tstate_[j].ready_at = now_ + kStartupPenalty;
        tstate_[j].pending_since = tstate_[j].ready_at;
      }
    }
    // The machine finishes the moment the last context frees (keeps the
    // cycles == instructions + idle accounting identity exact).
    if (state_.active_thread_count() == 0) all_exited_ = true;
  }
  if (res.spawned != ArchState::kNoThread) {
    tstate_[res.spawned].ready_at = now_ + kStartupPenalty;
    tstate_[res.spawned].pending_since = tstate_[res.spawned].ready_at;
  }
  if (res.halt) {
    halted_ = true;
    drain_end_ = now_ + 4;  // scalar WB of HALT completes at now_+3
  }

  // Statistics and trace.
  ++stats_.instructions;
  ++stats_.issued_by_class[static_cast<std::size_t>(cls)];
  ++stats_.issued_by_thread[t];
  if (cls != InstrClass::kScalar) ++stats_.broadcast_ops;
  if (cls == InstrClass::kReduction) ++stats_.reduction_ops;
  if (tracing_ && trace_.size() < trace_capacity_) {
    TraceEntry e;
    e.thread = t;
    e.pc = pc;
    e.instr = in;
    e.cls = cls;
    e.pending_since = ts.pending_since;
    e.issue = now_;
    e.avail = avail;
    e.stalled_on = ts.blocked_on;
    e.taken_branch = res.taken_branch;
    trace_.push_back(e);
  }

  ts.ready_at = next_ready;
  ts.pending_since = next_ready;
  ts.blocked_on = StallCause::kNone;
  last_issued_ = t;
}

void Machine::issue_stage_finegrain(std::uint32_t max_issues) {
  const std::uint32_t T = state_.num_threads();
  std::uint32_t issued = 0;
  StallCause first_block = StallCause::kNone;
  bool any_live = false;

  // Evaluate every thread (hardware decodes all in parallel); issue the
  // first ready one(s) in rotating-priority order. SMT re-checks each
  // candidate just before issuing so that same-cycle co-issued
  // instructions can never be mutually dependent.
  const ThreadId rotate_from = last_issued_;
  for (std::uint32_t k = 0; k < T && issued < max_issues; ++k) {
    const ThreadId t = (rotate_from + 1 + k) % T;
    auto& ctx = state_.thread(t);
    if (ctx.state == ThreadState::kFree) continue;
    any_live = true;
    if (ctx.state == ThreadState::kWaiting) {
      ++stats_.thread_stalls[t][static_cast<std::size_t>(StallCause::kJoinWait)];
      if (first_block == StallCause::kNone) first_block = StallCause::kJoinWait;
      continue;
    }
    if (tstate_[t].ready_at > now_) {
      ++stats_.thread_stalls[t][static_cast<std::size_t>(StallCause::kControlPenalty)];
      if (first_block == StallCause::kNone) first_block = StallCause::kControlPenalty;
      continue;
    }
    const DecodedEntry& de = decoded(t, ctx.pc);
    const HazardCheck hc = earliest_issue(t, de);
    if (hc.earliest <= now_) {
      issue(t, de);
      ++issued;
    } else {
      ++stats_.thread_stalls[t][static_cast<std::size_t>(hc.cause)];
      tstate_[t].blocked_on = hc.cause;
      if (first_block == StallCause::kNone) first_block = hc.cause;
    }
  }

  if (issued == 0) {
    if (any_live) {
      ++stats_.idle_cycles;
      ++stats_.idle_by_cause[static_cast<std::size_t>(first_block)];
    } else {
      all_exited_ = true;  // every thread exited without HALT
    }
  }
}

void Machine::issue_stage_coarse() {
  const auto& cfg = config();
  const std::uint32_t T = state_.num_threads();

  if (state_.active_thread_count() == 0) {
    all_exited_ = true;
    return;
  }

  auto idle = [&](StallCause cause) {
    ++stats_.idle_cycles;
    ++stats_.idle_by_cause[static_cast<std::size_t>(cause)];
  };

  if (switch_until_ > now_) {  // mid-switch: pipeline flushing/refilling
    idle(StallCause::kThreadSwitch);
    return;
  }

  const auto& ctx = state_.thread(coarse_thread_);
  bool resident_runnable = false;
  StallCause resident_cause = StallCause::kJoinWait;
  Cycle resident_wait = ~Cycle{0};
  if (ctx.state == ThreadState::kActive) {
    if (tstate_[coarse_thread_].ready_at > now_) {
      resident_cause = StallCause::kControlPenalty;
      resident_wait = tstate_[coarse_thread_].ready_at - now_;
    } else {
      const DecodedEntry& de = decoded(coarse_thread_, ctx.pc);
      const HazardCheck hc = earliest_issue(coarse_thread_, de);
      if (hc.earliest <= now_) {
        issue(coarse_thread_, de);
        resident_runnable = true;
      } else {
        resident_cause = hc.cause;
        resident_wait = hc.earliest - now_;
      }
    }
  }
  if (resident_runnable) return;

  // The resident thread cannot issue. Paper §5: coarse-grain switches
  // only on stalls long enough to amortize the many-cycle switch, so
  // short hazards are waited out in place.
  if (resident_wait <= cfg.switch_penalty) {
    ++stats_.thread_stalls[coarse_thread_][static_cast<std::size_t>(resident_cause)];
    idle(resident_cause);
    return;
  }

  // Long stall (or dead/waiting resident): switch to the next live thread.
  for (std::uint32_t k = 1; k <= T; ++k) {
    const ThreadId t = (coarse_thread_ + k) % T;
    if (t == coarse_thread_) break;
    if (state_.thread(t).state == ThreadState::kFree) continue;
    coarse_thread_ = t;
    switch_until_ = now_ + cfg.switch_penalty;
    ++stats_.thread_switches;
    idle(StallCause::kThreadSwitch);
    return;
  }
  // No other live thread: wait in place.
  ++stats_.thread_stalls[coarse_thread_][static_cast<std::size_t>(resident_cause)];
  idle(resident_cause);
}

bool Machine::step() {
  if (finished()) return false;

  if (!halted_) {
    switch (config().sched_policy) {
      case ThreadSchedPolicy::kFineGrain:
        issue_stage_finegrain(1);
        break;
      case ThreadSchedPolicy::kSmt:
        issue_stage_finegrain(config().issue_width);
        break;
      case ThreadSchedPolicy::kCoarseGrain:
        issue_stage_coarse();
        break;
    }
  }

  ++now_;
  stats_.cycles = now_;
  return !finished();
}

bool Machine::run(Cycle max_cycles) {
  while (!finished()) {
    if (now_ >= max_cycles) return false;
    step();
  }
  return true;
}

}  // namespace masc

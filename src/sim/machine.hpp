// The cycle-accurate Multithreaded ASC Processor model.
//
// Timing model (full derivation in DESIGN.md §5): the machine is a
// single-issue, in-order, fine-grain multithreaded pipeline. Each cycle
// every active thread's oldest decoded instruction is hazard-checked
// against the instruction status table; the scheduler issues the first
// ready one in rotating-priority order. Issue = entering the SR stage.
// Stage offsets from the issue cycle i (b = broadcast latency,
// r = reduction latency, both Θ(log p)):
//
//   scalar:    EX i+1, MA i+2, WB i+3; result forwardable end of EX
//              (loads: end of MA; pipelined mul: end of EX2)
//   parallel:  B1..Bb i+1..i+b, PR i+b+1, EX i+b+2, MA i+b+3, WB i+b+4;
//              result forwardable end of EX (PE-internal paths)
//   reduction: B1..Bb, PR i+b+1, R1..Rr i+b+2..i+b+r+1, WB i+b+r+2;
//              result forwardable end of R_r — so a dependent scalar
//              (consumes at EX) or parallel (consumes at B1) instruction
//              of the same thread stalls up to b + r cycles (paper §4.2).
//
// Functional effects are applied at issue; the scoreboard separately
// models when values become *visible*, which is all that timing needs in
// an in-order machine (no speculation, no rollback).
#pragma once

#include <optional>
#include <vector>

#include "isa/operands.hpp"
#include "sim/arch_state.hpp"
#include "sim/exec.hpp"
#include "sim/scoreboard.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace masc {

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);

  void load(const Program& program);

  ArchState& state() { return state_; }
  const ArchState& state() const { return state_; }
  const Stats& stats() const { return stats_; }
  const MachineConfig& config() const { return state_.config(); }
  Cycle now() const { return now_; }
  bool halted() const { return halted_; }
  bool finished() const;

  /// Advance one clock cycle. Returns false once the machine is finished.
  bool step();

  /// Run to completion (HALT, all threads exited, or the cycle limit).
  /// Returns true if the program finished, false on cycle-limit timeout.
  bool run(Cycle max_cycles = 100'000'000);

  /// Record per-instruction timing into the trace buffer.
  void enable_trace(std::size_t max_entries = 4096);
  const std::vector<TraceEntry>& trace() const { return trace_; }

  /// Serialize the complete dynamic machine state — architectural state,
  /// instruction status table, cumulative statistics, and every internal
  /// timing register — into one binary blob (sim/checkpoint.cpp). A
  /// Machine constructed with the same config, loaded with the same
  /// program, and restore_state()d from the blob continues cycle-for-cycle
  /// and bit-for-bit identically to the original. The trace buffer is
  /// not part of the snapshot.
  std::string save_state() const;

  /// Inverse of save_state(). Call after load()ing the same program;
  /// throws BinError when the blob is malformed or was taken on a
  /// different (config, program) pair.
  void restore_state(const std::string& blob);

 private:
  struct ThreadIssueState {
    Cycle ready_at = 0;       ///< earliest cycle the next instruction may issue
    Cycle pending_since = 0;  ///< when the current oldest instruction entered ID
    StallCause blocked_on = StallCause::kNone;
  };

  /// One slot of the predecode table: everything about an instruction
  /// that does not depend on runtime state. In hardware decode and
  /// operand analysis run every cycle; on the host the program text is
  /// immutable, so load() computes each of these exactly once and the
  /// per-cycle issue logic reduces to table lookups.
  struct DecodedEntry {
    Instruction instr;
    OperandInfo info;
    unsigned avail_off = 1;  ///< avail_offset(instr), config-resolved
    unsigned ex_off = 1;     ///< ex_offset(instr), config-resolved
    bool uses_falkoff_maxmin = false;
    bool valid = false;      ///< decode succeeded at load time
  };

  struct HazardCheck {
    Cycle earliest = 0;
    StallCause cause = StallCause::kNone;
  };

  const DecodedEntry& decoded(ThreadId t, Addr pc);
  DecodedEntry make_entry(InstrWord word) const;
  HazardCheck earliest_issue(ThreadId t, const DecodedEntry& de);
  void issue(ThreadId t, const DecodedEntry& de);
  /// Per-cycle issue stage for fine-grain MT and SMT (`max_issues` = 1
  /// for fine-grain, issue_width for SMT).
  void issue_stage_finegrain(std::uint32_t max_issues);
  /// Per-cycle issue stage for the coarse-grain baseline (§5).
  void issue_stage_coarse();

  /// Cycle (relative to issue) at the end of which the result of `in` is
  /// forwardable to consumers.
  unsigned avail_offset(const Instruction& in) const;
  /// Offset of the EX stage (start of a sequential unit's occupancy).
  unsigned ex_offset(const Instruction& in) const;

  ArchState state_;
  Scoreboard scoreboard_;
  Stats stats_;
  std::vector<ThreadIssueState> tstate_;
  /// Predecode table covering the loaded program text; PCs past the text
  /// (a wild jump into zeroed instruction memory) fall back to the
  /// shared single-slot cache below, preserving seed decode semantics.
  std::vector<DecodedEntry> predecoded_;
  Addr fallback_pc_ = ~Addr{0};
  DecodedEntry fallback_entry_;
  Cycle now_ = 0;
  ThreadId last_issued_ = 0;
  // Coarse-grain policy state: the resident thread and the cycle until
  // which the pipeline is busy flushing/refilling after a switch.
  ThreadId coarse_thread_ = 0;
  Cycle switch_until_ = 0;
  bool halted_ = false;
  Cycle drain_end_ = 0;
  bool all_exited_ = false;

  // Shared sequential functional units (structural hazards, paper §6.2).
  Cycle scalar_muldiv_free_ = 0;
  Cycle pe_muldiv_free_ = 0;
  // Bit-serial Falkoff max/min unit (predecessor-design option, §6.4):
  // one operation at a time across all threads.
  Cycle falkoff_free_ = 0;

  bool tracing_ = false;
  std::size_t trace_capacity_ = 0;
  std::vector<TraceEntry> trace_;
};

}  // namespace masc

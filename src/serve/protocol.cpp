#include "serve/protocol.hpp"

#include "ascal/codegen.hpp"
#include "assembler/assembler.hpp"
#include "common/error.hpp"

namespace masc::serve {

MachineConfig config_from_json(const json::Value& v) {
  if (!v.is_object()) throw JsonError("\"config\" must be an object");
  MachineConfig cfg;
  cfg.num_pes = static_cast<std::uint32_t>(v.get_uint("pes", cfg.num_pes));
  cfg.num_threads =
      static_cast<std::uint32_t>(v.get_uint("threads", cfg.num_threads));
  cfg.word_width = static_cast<unsigned>(v.get_uint("width", cfg.word_width));
  cfg.broadcast_arity =
      static_cast<std::uint32_t>(v.get_uint("arity", cfg.broadcast_arity));
  cfg.issue_width =
      static_cast<std::uint32_t>(v.get_uint("issue_width", cfg.issue_width));
  cfg.switch_penalty = static_cast<std::uint32_t>(
      v.get_uint("switch_penalty", cfg.switch_penalty));
  cfg.multithreading = v.get_bool("multithreading", cfg.multithreading);
  cfg.pipelined_network =
      v.get_bool("pipelined_network", cfg.pipelined_network);
  cfg.pipelined_execution =
      v.get_bool("pipelined_execution", cfg.pipelined_execution);
  const std::string sched = v.get_string("sched", "fine");
  if (sched == "fine") cfg.sched_policy = ThreadSchedPolicy::kFineGrain;
  else if (sched == "coarse") cfg.sched_policy = ThreadSchedPolicy::kCoarseGrain;
  else if (sched == "smt") cfg.sched_policy = ThreadSchedPolicy::kSmt;
  else throw JsonError("unknown sched policy \"" + sched + "\"");
  cfg.validate();
  return cfg;
}

Program program_from_json(const json::Value& v) {
  if (!v.is_object()) throw JsonError("\"program\" must be an object");
  if (const json::Value* src = v.find("source")) return assemble(src->as_string());
  if (const json::Value* src = v.find("ascal"))
    return assemble(ascal::compile(src->as_string()).assembly);
  const json::Value* text = v.find("text");
  if (!text)
    throw JsonError("program needs \"source\", \"ascal\", or \"text\"");
  Program prog;
  prog.text.reserve(text->as_array().size());
  for (const auto& w : text->as_array())
    prog.text.push_back(static_cast<InstrWord>(w.as_uint()));
  if (const json::Value* data = v.find("data")) {
    prog.data.reserve(data->as_array().size());
    for (const auto& w : data->as_array())
      prog.data.push_back(static_cast<Word>(w.as_uint()));
  }
  prog.entry = static_cast<Addr>(v.get_uint("entry", 0));
  return prog;
}

SweepJob job_from_json(const json::Value& v) {
  if (!v.is_object()) throw JsonError("job must be an object");
  SweepJob job;
  if (const json::Value* cfg = v.find("config"))
    job.cfg = config_from_json(*cfg);
  else
    job.cfg.validate();
  const json::Value* prog = v.find("program");
  if (!prog) throw JsonError("job needs a \"program\"");
  job.program = program_from_json(*prog);
  job.label = v.get_string("label", job.cfg.name());
  job.seed = v.get_uint("seed", 0);
  job.max_cycles = v.get_uint("max_cycles", job.max_cycles);
  // Host-execution knob: 0 inherits the server's --batch-lanes default,
  // 1 forces serial; never part of cache keys.
  job.batch_lanes =
      static_cast<std::uint32_t>(v.get_uint("batch_lanes", job.batch_lanes));
  return job;
}

}  // namespace masc::serve

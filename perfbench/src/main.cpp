// masc_perfbench: the MASC end-to-end benchmark (perfbench/README.md).
//
//   masc_perfbench --workload sweep_grid|serve_hot|route_miss --seed N
//                  --seconds S --trace 0|1 [--out-dir DIR] [--source-id ID]
//
// --trace 0 times the workload and prints its end-to-end metrics;
// --trace 1 prints the per-layer metrics instead. Either way the last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The full report (host fingerprint, sample counts, digest)
// goes to stdout above it and to DIR/report-*.json; spans to DIR/trace-*.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "common/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// The metrics BENCHMARK.json declares, in its order, each with how it
// scales with the host's speed: +1 for a time, -1 for a rate, 0 for
// memory. The tails (hit_us_p99, miss_ms_p99) are measured and reported
// but not declared: on a shared 4-vCPU host their run-to-run spread is
// wider than any bound a regression gate could use (perfbench/README.md).
struct Declared {
  const char* name;
  int speed_power;
};
const Declared kEndToEnd[] = {{"setup_s", 1},           {"peak_rss_mb", 0},
                              {"jobs_per_s", -1},       {"sim_mcycles_per_s", -1},
                              {"hit_us_p50", 1},        {"miss_ms_p50", 1}};

// probe_host_speed() on the 4-vCPU Xeon virtual machine the benchmark was
// defined on (it drifted between about 65 and 95 Miter/s there). Timings
// are reported as if the host ran at this speed.
constexpr double kReferenceHostSpeed = 80e6;
const char* const kPerLayer[] = {
    "assembler.assemble_us",         "protocol.submit_decode_us",
    "protocol.result_encode_us",     "protocol_v2.frame_codec_us",
    "net.rtt_us",                    "cache.key_us",
    "cache.l1_lookup_us",            "cache.l2_lookup_us",
    "cache.hit_share",               "cache.l2_hit_share",
    "cache.insert_us",               "cache.demote_drops",
    "cache.flights_joined",          "sim.machine.us_per_kcycle.p16",
    "sim.machine.us_per_kcycle.p256", "sim.machine.us_per_kcycle.p1024",
    "sim.fabric.us_per_fleet_kcycle", "sim.batch.us_per_lane_kcycle",
    "sim.batch.occupancy_mean",      "sim.batch.replayed_share",
    "sweep.worker_busy_share",       "serve.miss_wait_ms",
    "serve.refused_share",           "route.submit_ms",
    "route.result_wait_ms",          "route.hop_overhead_ms",
    "route.rerouted_share",          "sim.cycles",
    "sim.ipc",                       "trace.overhead_share",
    "unattributed_share.hit",        "unattributed_share.miss"};

using RunFn = WorkloadRun (*)(const Options&, double, unsigned, Tracer&);

struct Workload {
  const char* name;
  RunFn fn;
};
const Workload kWorkloads[] = {{"sweep_grid", run_sweep_grid},
                               {"serve_hot", run_serve_hot},
                               {"route_miss", run_route_miss}};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "masc_perfbench: %s\nusage: masc_perfbench --workload "
               "sweep_grid|serve_hot|route_miss --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--source-id ID]\n",
               msg);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else if (a == "--source-id") {
        opt.source_id = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0 && opt.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return opt;
}

std::string read_first_line(const char* path, const char* prefix) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line))
    if (prefix == nullptr || line.rfind(prefix, 0) == 0) {
      if (prefix == nullptr) return line;
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string fingerprint(const Options& opt) {
  std::ostringstream os;
  os << "{\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"cpu_model\":\"" << masc::json_escape(read_first_line("/proc/cpuinfo", "model name"))
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"compiler\":\"" << masc::json_escape(__VERSION__)
     << "\",\"source\":\"" << masc::json_escape(opt.source_id)
     << "\",\"loadavg_at_start\":\""
     << masc::json_escape(read_first_line("/proc/loadavg", nullptr)) << "\"}";
  return os.str();
}

/// A number with all its digits (the shortest exact form), or a fraction
/// rounded to `digits` for the table. The rare infinite latency (a refused request
/// at the reported percentile) is written as 1e12 so the JSON stays valid.
std::string num(double v, int digits = 0) {
  if (!std::isfinite(v)) v = 1e12;
  char buf[64];
  if (digits > 0 && v != std::floor(v)) {
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    return buf;
  }
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

const Metric* find(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms)
    if (m.name == name) return &m;
  return nullptr;
}

double value(const std::vector<Metric>& ms, const std::string& name) {
  const Metric* m = find(ms, name);
  return m ? m->value : 0.0;
}

/// End-to-end p50 minus the layer self times that block it, as a share
/// of the p50: the time no layer metric accounts for yet.
void unattributed(const std::string& workload, const WorkloadRun& w,
                  std::vector<Metric>& layer) {
  const auto v = [&](const char* n) { return value(layer, n); };
  const double l2 = v("cache.l2_hit_share");
  const double lookup = (1 - l2) * v("cache.l1_lookup_us") + l2 * v("cache.l2_lookup_us");
  double hit = 0, miss = 0;
  std::string how;
  if (workload == "sweep_grid") {
    // Offline: a hit is key + lookup; a miss's latency is engine time.
    hit = v("cache.key_us") + v("cache.l1_lookup_us");
    miss = w.miss_engine_p50_us;
    how = "hit: key + L1 lookup; miss: job time is engine time";
  } else {
    const unsigned hops = workload == "route_miss" ? 2 : 1;
    const double decode = v("protocol.submit_decode_us") +
                          (workload == "serve_hot" ? v("assembler.assemble_us") : 0.0);
    hit = hops * (2 * v("net.rtt_us") + v("protocol_v2.frame_codec_us") + decode +
                  v("cache.key_us")) +
          lookup + v("protocol.result_encode_us");
    miss = hit - lookup + v("cache.l1_lookup_us") + w.miss_engine_p50_us +
           v("cache.insert_us");
    how = "per hop: 2 rtt + frame codec + decode + key; plus lookup, "
          "result encode; misses add engine p50 and insert";
  }
  const auto share = [](double e2e, double layers) {
    return e2e > 0 ? (e2e - layers) / e2e : 0.0;
  };
  layer.push_back({"unattributed_share.hit", "share", share(w.hit_p50_us, hit), how});
  layer.push_back({"unattributed_share.miss", "share", share(w.miss_p50_us, miss), how});
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %14s %-10s %s\n", m.name.c_str(), num(m.value, 6).c_str(),
                m.unit.c_str(), m.note.c_str());
}

int run(const Options& opt) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) wl = &w;
  if (wl == nullptr) usage(("unknown workload " + opt.workload).c_str());

  const std::string fp = fingerprint(opt);
  std::vector<Metric> reported;  // exactly the declared metrics, in order
  std::vector<Metric> extra;     // everything else the report carries
  Report tally;                  // failures over every run made
  std::uint64_t digest = 0, cycles = 0, instructions = 0;
  const std::string tag =
      opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0");

  // A run whose open-loop generator fell behind its schedule (the host
  // stalled it) is measured once more on a fresh set-up; a second stall
  // marks the run invalid.
  unsigned retries = 0;
  auto measure = [&](RunFn fn, double scale, unsigned repeats, Tracer& t) {
    WorkloadRun w = fn(opt, scale, repeats, t);
    if (w.e2e.valid || w.e2e.failed > 0) return w;
    ++retries;
    return fn(opt, scale, repeats, t);
  };
  auto absorb = [&](const WorkloadRun& w) {
    tally.attempted += w.e2e.attempted;
    tally.failed += w.e2e.failed;
    tally.mismatched += w.e2e.mismatched;
    tally.valid = tally.valid && w.e2e.valid;
  };

  if (!opt.trace) {
    Tracer off(false);
    WorkloadRun w = measure(wl->fn, 1.0, 3, off);
    absorb(w);
    w.e2e.add("setup_s", "s", median(w.setup_s),
              "median of " + std::to_string(w.setup_s.size()) + " set-ups");
    // The shared host's speed drifts by tens of percent over minutes, and
    // every timing with it: each is scaled to the reference speed by the
    // probe's median over this run, and printed unscaled as raw.<name>.
    const double speed = median(w.host_speed);
    extra.push_back({"host_speed", "Miter/s", speed * 1e-6,
                     "probe median of " + std::to_string(w.host_speed.size()) +
                         "; reference " + num(kReferenceHostSpeed * 1e-6)});
    for (const Declared& d : kEndToEnd) {
      const Metric* m = find(w.e2e.metrics, d.name);
      if (m == nullptr) throw std::logic_error(std::string("missing metric ") + d.name);
      Metric scaled = *m;
      scaled.value *= std::pow(speed / kReferenceHostSpeed, d.speed_power);
      if (d.speed_power != 0) {
        scaled.note += (scaled.note.empty() ? "" : "; ") + std::string("host-speed scaled");
        extra.push_back(*m);
        extra.back().name = "raw." + m->name;
      }
      reported.push_back(scaled);
    }
    for (const Metric& m : w.e2e.metrics)
      if (find(reported, m.name) == nullptr) extra.push_back(m);
    digest = w.stats_digest;
    cycles = w.sim_cycles;
    instructions = w.sim_instructions;
  } else {
    // Part 1: the workload untraced, then traced on a fresh set-up; the
    // other workloads as short traced replays for their own layers.
    Tracer off(false), on(true), probes(true);
    const WorkloadRun plain = measure(wl->fn, 1.0, 1, off);
    const WorkloadRun traced = measure(wl->fn, 1.0, 1, on);
    absorb(plain);
    absorb(traced);
    std::vector<Metric> layer;
    std::map<std::string, WorkloadRun> replays;
    for (const Workload& w : kWorkloads) {
      if (w.fn == wl->fn) continue;
      Tracer mini(true);
      replays.emplace(w.name, measure(w.fn, 0.1, 1, mini));
      absorb(replays.at(w.name));
    }
    // Part 2: every layer's public function on its own.
    probe_layers(opt, probes, layer);
    for (const Workload& w : kWorkloads) {
      const WorkloadRun& r = w.fn == wl->fn ? traced : replays.at(w.name);
      for (Metric m : r.layer) {
        if (w.fn != wl->fn) m.note += " (short " + std::string(w.name) + " replay)";
        layer.push_back(m);
      }
    }
    // The replay measured miss latency - engine time; the net round
    // trip comes from the probes.
    for (Metric& m : layer)
      if (m.name == "serve.miss_wait_ms") m.value -= value(layer, "net.rtt_us") * 1e-3;
    layer.push_back({"sim.cycles", "cycles", static_cast<double>(traced.sim_cycles),
                     "exact, all verified results"});
    layer.push_back({"sim.ipc", "instr/cycle",
                     traced.sim_cycles ? static_cast<double>(traced.sim_instructions) /
                                             static_cast<double>(traced.sim_cycles)
                                       : 0.0,
                     "exact"});
    layer.push_back({"trace.overhead_share", "share",
                     plain.headline > 0 && traced.headline > 0
                         ? plain.headline / traced.headline - 1.0
                         : 0.0,
                     "jobs_per_s untraced / traced - 1"});
    unattributed(opt.workload, traced, layer);
    for (const char* name : kPerLayer) {
      const Metric* m = find(layer, name);
      if (m == nullptr) throw std::logic_error(std::string("missing metric ") + name);
      reported.push_back(*m);
    }
    for (const Metric& m : traced.e2e.metrics) extra.push_back(m);
    digest = traced.stats_digest;
    cycles = traced.sim_cycles;
    instructions = traced.sim_instructions;
    // One span file per workload (the latest traced run), so repeated
    // runs do not pile up trace files.
    on.write(opt.out_dir + "/trace-" + opt.workload + ".jsonl");
    probes.write(opt.out_dir + "/trace-" + opt.workload + "-layers.jsonl");
  }

  const bool correct = tally.mismatched == 0 && tally.failed == 0 && tally.valid;
  const double fail_share =
      tally.attempted ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
                      : 0.0;

  std::printf("MASC end-to-end benchmark: workload %s, seed %llu, %g s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host %s\n", fp.c_str());
  print_metrics(opt.trace ? "per-layer metrics:" : "end-to-end metrics:", reported);
  print_metrics("also measured:", extra);
  std::printf("fail_share %s (%llu of %llu; %llu wrong results)\n", num(fail_share, 6).c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.mismatched));
  std::printf("stats digest %016llx over %llu simulated cycles\n",
              static_cast<unsigned long long>(digest), static_cast<unsigned long long>(cycles));
  if (retries > 0)
    std::printf("re-measured %u time(s) after the open-loop generator fell behind\n", retries);
  std::printf("run %s; the cycle model is unvalidated against hardware (the paper "
              "reports no measured cycle counts), so no accuracy figure is given\n",
              tally.valid ? "valid" : "INVALID: open-loop generator fell behind its schedule");

  std::ostringstream metrics;
  metrics << "{";
  for (std::size_t i = 0; i < reported.size(); ++i)
    metrics << (i ? ", " : "") << "\"" << reported[i].name << "\": {\"value\": "
            << num(reported[i].value) << ", \"unit\": \"" << reported[i].unit << "\"}";
  metrics << "}";

  std::ofstream report(opt.out_dir + "/report-" + tag + ".json");
  report << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
         << ",\"seconds\":" << num(opt.seconds) << ",\"trace\":" << (opt.trace ? 1 : 0)
         << ",\"host\":" << fp << ",\"valid\":" << (tally.valid ? "true" : "false")
         << ",\"retries\":" << retries
         << ",\"fail_share\":" << num(fail_share) << ",\"attempted\":" << tally.attempted
         << ",\"failed\":" << tally.failed << ",\"wrong\":" << tally.mismatched
         << ",\"stats_digest\":\"" << std::hex << digest << std::dec
         << "\",\"sim_cycles\":" << cycles << ",\"sim_instructions\":" << instructions
         << ",\"metrics\":" << metrics.str() << ",\"also\":{";
  for (std::size_t i = 0; i < extra.size(); ++i)
    report << (i ? "," : "") << "\"" << extra[i].name << "\":{\"value\":" << num(extra[i].value)
           << ",\"unit\":\"" << extra[i].unit << "\",\"note\":\""
           << masc::json_escape(extra[i].note) << "\"}";
  report << "},\"notes\":{";
  for (std::size_t i = 0; i < reported.size(); ++i)
    report << (i ? "," : "") << "\"" << reported[i].name << "\":\""
           << masc::json_escape(reported[i].note) << "\"";
  report << "}}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const perfbench::Options opt = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "masc_perfbench: %s\n", e.what());
    return 1;
  }
}

// Shared pieces of the MASC end-to-end benchmark (perfbench/README.md):
// clocks, sample summaries, the metric report, the in-memory span
// recorder, the seeded job catalogue with its serial references, and the
// pipelined v2 load generator. Everything here drives the system only
// through its public headers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "serve/protocol_v2.hpp"
#include "sim/sweep.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Wall seconds of `fn()`.
template <typename Fn>
double time_s(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// --- Options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string source_id = "unknown";
};

// --- Sample summaries --------------------------------------------------------

/// Median plus the highest percentile the sample supports: p99 when at
/// least 1,000 samples stand behind it, otherwise the highest whole
/// percentile with at least ten samples above it (never below p50).
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double high = 0.0;
  unsigned high_pct = 50;
};
Summary summarize(std::vector<double> samples);
double median(std::vector<double> samples);

// --- Report ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< sample count / percentile actually reported
};

/// What one run measured and how many of its operations failed.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< refused + failed + wrong results
  std::uint64_t mismatched = 0;  ///< results whose Stats differ from serial
  bool valid = true;             ///< open-loop generator kept its schedule

  void add(std::string name, std::string unit, double value,
           std::string note = "");
  void add_summary(const std::string& prefix, const std::string& unit,
                   const Summary& s);
};

// --- Tracing -----------------------------------------------------------------

/// In-memory spans recorded by the benchmark's own code around its calls
/// into each layer. Disabled tracers cost one branch per call.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Open a span now; returns its handle (-1 when disabled).
  std::int32_t open(const char* name, std::int32_t parent = -1,
                    std::uint64_t request = 0);
  void close(std::int32_t handle);
  /// Record a span whose bounds were measured elsewhere.
  std::int32_t record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int32_t parent = -1,
                      std::uint64_t request = 0);

  /// Self time (span minus the union of its children) of every closed
  /// span with this name, in microseconds.
  std::vector<double> self_us(std::string_view name) const;
  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int32_t parent = -1,
             std::uint64_t request = 0)
      : t_(t), h_(t.open(name, parent, request)) {}
  ~ScopedSpan() { t_.close(h_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::int32_t h_;
};

// --- Job catalogue -----------------------------------------------------------

/// One distinct simulation job with its serial reference outcome.
struct JobSpec {
  masc::SweepJob job;
  std::string wire;        ///< the job object as sent over the wire
  std::string source;      ///< full assembly text, data segment included
  // Reference Stats as 64-bit FNV-1a digests of their bytes: as served
  // (to_json), as a router re-serializes them, and as save() writes them
  // (with fabric counters) for the in-process paths.
  std::uint64_t ref_wire = 0;
  std::uint64_t ref_wire_routed = 0;
  std::uint64_t ref_bin = 0;
  std::shared_ptr<const masc::CachedSweepRun> ref_run;  ///< as a cache entry
  std::size_t ref_run_bytes = 0;  ///< cached_run_bytes of that entry
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

enum class ProgramForm { kSource, kImage };

/// Program families; each takes its iteration constant from the seed.
std::string control_program(unsigned iters);    // 16 PEs, scalar-bound
std::string row_program(unsigned iters);        // 256/1024 PEs, row-bound
std::string reduction_program(unsigned iters);  // reduction chains
std::string fabric_program(unsigned iters);     // 4-chip allreduce loop

/// A job over `src` with data words appended, decoded from its wire form
/// exactly as a server decodes it. Fabric jobs (`fabric_chips` > 0) run
/// offline only; their FabricConfig is attached after decoding.
JobSpec make_job(const std::string& src, const std::vector<std::uint32_t>& data,
                 std::uint32_t pes, std::uint32_t threads, ProgramForm form,
                 std::uint32_t fabric_chips = 0);

/// Run every job serially (run_sweep_job) on up to `threads` host
/// threads and fill its reference fields; `ref_run` only when
/// `keep_runs` (the served workloads need just the digests, and their
/// job tables would otherwise dominate the process's memory). Throws if
/// a job does not finish.
void compute_references(std::vector<JobSpec>& jobs, unsigned threads,
                        bool keep_runs = true);

/// Bytes of a result's Stats (+ fabric counters) for the identity gate.
std::string stats_bytes(const masc::SweepResult& r);
std::uint64_t fnv64(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
/// Fold one job's reference digest into a run digest (order-sensitive).
inline std::uint64_t fold(std::uint64_t digest, std::uint64_t job) {
  return (digest ^ job) * 0x100000001b3ULL;
}

/// Draws from a Zipf(s) law over [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(masc::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- Pipelined v2 load generator --------------------------------------------

/// One logical request: a v2 submit carrying one job, then a v2
/// result-wait with release for the id it returned.
struct Request {
  std::uint32_t job = 0;   ///< index into the workload's JobSpec table
  std::uint8_t cls = 0;    ///< 0 = repeat (cache hit), 1 = fresh (miss)
  std::int64_t due_ns = 0;          ///< open loop: scheduled send time
  std::int64_t sent_ns = 0;         ///< submit written
  std::int64_t submit_done_ns = 0;  ///< submit response read
  std::int64_t result_sent_ns = 0;
  std::int64_t done_ns = 0;         ///< result response read
  double engine_s = 0.0;            ///< host_seconds reported in the result
  std::uint8_t outcome = 0;  ///< 0 pending, 1 ok, 2 refused, 3 failed, 4 wrong
};

struct LoadResult {
  double wall_s = 0.0;
  std::vector<double> send_late_us;  ///< open loop only
  std::uint64_t timed_out = 0;
};

/// Drives a list of requests against a masc-served or masc-routerd port
/// over `conns` connections speaking pipelined protocol v2.
class LoadGen {
 public:
  LoadGen(std::uint16_t port, unsigned conns, const std::vector<JobSpec>& jobs,
          bool routed, Tracer& tracer);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Send reqs[lo, hi) at their due times (relative to the phase start).
  LoadResult open_loop(std::vector<Request>& reqs, std::size_t lo, std::size_t hi);
  /// Keep `window` requests of reqs[lo, hi) in flight until all completed.
  LoadResult closed_loop(std::vector<Request>& reqs, std::size_t lo, std::size_t hi,
                         unsigned window);

 private:
  struct Conn;
  void begin(std::vector<Request>& reqs, std::size_t lo, std::size_t hi, bool closed);
  void on_frame(Conn& c, std::string&& payload);
  void send_submit(Conn& c, std::vector<Request>& reqs, std::uint32_t idx);
  void finish(Conn& c, std::vector<Request>& reqs, std::uint32_t idx);
  LoadResult wait_all(std::int64_t start_ns, std::size_t n);

  const std::vector<JobSpec>& jobs_;
  bool routed_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<Conn>> conns_;

  std::atomic<std::vector<Request>*> reqs_{nullptr};
  std::atomic<std::size_t> next_{0};  ///< closed loop: next request index
  std::size_t end_ = 0;               ///< closed loop: one past the last
  std::atomic<bool> closed_{false};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::size_t done_ = 0;
  std::size_t count_ = 0;  ///< requests in the current phase
};

// --- Workloads and layer probes ---------------------------------------------

/// What one workload run measured: its end-to-end report, and what the
/// traced run turns into per-layer metrics.
struct WorkloadRun {
  Report e2e;
  std::uint64_t sim_cycles = 0;
  std::uint64_t sim_instructions = 0;
  std::uint64_t stats_digest = 0;
  std::vector<double> setup_s;
  /// Per-layer metrics this workload's replay produces (name, unit,
  /// value); the traced run reports them for this workload's layers.
  std::vector<Metric> layer;
  /// End-to-end p50 per request class, µs ("hit"/"miss"), and the
  /// engine-time p50 of the miss class, µs.
  double hit_p50_us = 0.0;
  double miss_p50_us = 0.0;
  double miss_engine_p50_us = 0.0;
  double headline = 0.0;  ///< the throughput figure compared traced vs not
  /// probe_host_speed() samples, one before each set-up and one per slice.
  std::vector<double> host_speed;
};

/// The seeded program texts of every workload (iteration constants
/// drawn within fixed bounds), shared with the layer probes.
struct Families {
  std::string grid_control, grid_row, grid_reduction, grid_fabric;
  std::string hot;    ///< serve_hot: repeats and fresh jobs alike
  std::string route;  ///< route_miss: 256-PE row-bound jobs
};
Families families(std::uint64_t seed);
/// Two data words for job `i`: a seeded mixing constant and the index
/// (which keeps every job's cache key distinct).
std::vector<std::uint32_t> job_data(masc::Rng& rng, std::size_t i);

/// `scale` multiplies every request/job count (1 = the full run for
/// `seconds`); `repeats` set-ups are timed and the last one measures.
WorkloadRun run_sweep_grid(const Options& opt, double scale, unsigned repeats,
                           Tracer& tracer);
WorkloadRun run_serve_hot(const Options& opt, double scale, unsigned repeats,
                          Tracer& tracer);
WorkloadRun run_route_miss(const Options& opt, double scale, unsigned repeats,
                           Tracer& tracer);

/// Part 2 of the traced run: every layer's public function called
/// directly on the workloads' own inputs, each call inside a span.
void probe_layers(const Options& opt, Tracer& tracer, std::vector<Metric>& out);

/// How fast the host runs code right now: iterations per second of a
/// fixed integer and memory kernel that shares no code with the system
/// under test. About 20 ms per call.
double probe_host_speed();

/// A private scratch directory under the run's output directory.
std::string scratch_dir(const Options& opt, const std::string& tag);
void remove_tree(const std::string& path);

}  // namespace perfbench

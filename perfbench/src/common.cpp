// Sample summaries, the report, the span recorder and the job catalogue.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "assembler/assembler.hpp"
#include "bench.hpp"
#include "common/binio.hpp"
#include "common/json.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

// --- Sample summaries --------------------------------------------------------

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    // Nearest rank: the smallest sample with at least q of the data at
    // or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
  };
  s.p50 = at(0.5);
  unsigned pct = 99;
  if (v.size() < 1000) {
    // Highest whole percentile with at least ten samples above it.
    const double q = 1.0 - 10.0 / static_cast<double>(v.size());
    pct = q <= 0.5 ? 50u : static_cast<unsigned>(std::floor(q * 100.0));
  }
  s.high_pct = pct;
  s.high = at(pct / 100.0);
  return s;
}

double median(std::vector<double> v) { return summarize(std::move(v)).p50; }

// --- Report ------------------------------------------------------------------

void Report::add(std::string name, std::string unit, double value,
                 std::string note_text) {
  metrics.push_back({std::move(name), std::move(unit), value,
                     std::move(note_text)});
}

void Report::add_summary(const std::string& prefix, const std::string& unit,
                         const Summary& s) {
  const std::string n = "n=" + std::to_string(s.n);
  add(prefix + "_p50", unit, s.p50, n);
  add(prefix + "_p99", unit, s.high,
      n + (s.high_pct == 99 ? std::string()
                            : ", reports p" + std::to_string(s.high_pct)));
}

// --- Tracing -----------------------------------------------------------------

std::int32_t Tracer::open(const char* name, std::int32_t parent,
                          std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t, 0, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t handle) {
  if (handle < 0) return;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(handle)].end_ns = t;
}

std::int32_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int32_t parent,
                            std::uint64_t request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0 || name != s.name) continue;
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const Span& k = spans_[c];
      if (k.end_ns == 0) continue;
      iv.emplace_back(std::max(k.start_ns, s.start_ns),
                      std::min(k.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-3);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
      << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << "}\n";
  }
}

// --- Programs ----------------------------------------------------------------

namespace {

// Every family starts the same way: thread 0 spawns the rest of the
// hardware threads, then all of them run the body on their share of the
// iterations. Iteration counts are text constants; per-job variation
// lives in the data segment, so jobs of one family share program text
// (and therefore batch together).
std::string spawn_prologue(unsigned iters) {
  return R"(
main:
    nthreads r1
    li r2, 1
    la r3, worker
spawn:
    bgeu r2, r1, body
    tspawn r4, r3
    addi r2, r2, 1
    j spawn
worker:
body:
    nthreads r5
    li r6, )" + std::to_string(iters) + R"(
    divu r2, r6, r5
    lw r7, 0(r0)
    lw r11, 1(r0)
    pindex p1
    li r1, 0
)";
}

}  // namespace

std::string control_program(unsigned iters) {
  // Scalar data path over the data words; one parallel op per iteration
  // keeps the PE array nearly idle, so the control pass dominates.
  return spawn_prologue(iters) + R"(
    padds p2, r7, p1
loop:
    add r8, r8, r7
    xor r9, r8, r11
    sltu r10, r9, r6
    add r12, r12, r10
    paddi p2, p2, 1
    addi r1, r1, 1
    bne r1, r2, loop
    texit
)";
}

std::string row_program(unsigned iters) {
  // Search + count + masked update + broadcast arithmetic per iteration:
  // every instruction but the loop control touches all PE rows.
  return spawn_prologue(iters) + R"(
    padds p2, r7, p1
    padds p3, r11, p1
loop:
    pcgts pf1, r1, p2
    rcount r3, pf1
    add r4, r4, r3
    paddi p2, p2, 1 ?pf1
    padds p3, r3, p2
    padd p4, p3, p1
    addi r1, r1, 1
    bne r1, r2, loop
    texit
)";
}

std::string reduction_program(unsigned iters) {
  // Reduction -> immediate scalar consume: the pipelined-network hazard
  // that multithreading hides.
  return spawn_prologue(iters) + R"(
    padds p1, r7, p1
loop:
    rsum r3, p1
    add r4, r4, r3
    rmaxu r9, p1
    xor r4, r4, r9
    addi r1, r1, 1
    bne r1, r2, loop
    texit
)";
}

std::string fabric_program(unsigned iters) {
  // Intra-chip reduction, then an inter-chip allreduce-SUM through the
  // scalar-memory mailbox, spinning on its ACK (docs/MULTICHIP.md).
  const masc::fabric::FabricConfig defaults;
  return R"(
    li r4, )" + std::to_string(defaults.mailbox_base) + R"(
    lw r10, 5(r4)
    lw r7, 0(r0)
    pindex p1
    padds p1, r7, p1
    li r6, 64
    li r1, 0
    li r2, )" + std::to_string(iters) + R"(
loop:
    rsum r3, p1
    sw r3, 0(r6)
    li r5, 1
    bleu r10, r5, skip
    sw r6, 1(r4)
    sw r5, 2(r4)
    lw r7, 3(r4)
    addi r7, r7, 1
    li r3, 3
    sw r3, 0(r4)
wait:
    lw r3, 3(r4)
    bne r3, r7, wait
skip:
    addi r1, r1, 1
    bne r1, r2, loop
    halt
)";
}

// --- Jobs --------------------------------------------------------------------

JobSpec make_job(const std::string& src, const std::vector<std::uint32_t>& data,
                 std::uint32_t pes, std::uint32_t threads, ProgramForm form,
                 std::uint32_t fabric_chips) {
  std::string full = src + "\n.data\n    .word ";
  for (std::size_t i = 0; i < data.size(); ++i)
    full += (i ? ", " : "") + std::to_string(data[i]);
  full += "\n";

  std::string program;
  if (form == ProgramForm::kSource) {
    program = "{\"source\":\"" + masc::json_escape(full) + "\"}";
  } else {
    const masc::Program p = masc::assemble(full);
    program = "{\"text\":[";
    for (std::size_t i = 0; i < p.text.size(); ++i)
      program += (i ? "," : "") + std::to_string(p.text[i]);
    program += "],\"data\":[";
    for (std::size_t i = 0; i < p.data.size(); ++i)
      program += (i ? "," : "") + std::to_string(p.data[i]);
    program += "],\"entry\":" + std::to_string(p.entry) + "}";
  }
  JobSpec spec;
  spec.source = full;
  spec.wire = "{\"config\":{\"pes\":" + std::to_string(pes) +
              ",\"threads\":" + std::to_string(threads) +
              ",\"width\":16},\"program\":" + program + "}";
  // Decode the wire form exactly as the server will, so the offline
  // paths run the very job the served paths receive.
  spec.job = masc::serve::job_from_json(masc::parse_json(spec.wire));
  if (fabric_chips > 0) {
    masc::fabric::FabricConfig fab;
    fab.chips = fabric_chips;
    spec.job.fabric = fab;
  }
  return spec;
}

std::string stats_bytes(const masc::SweepResult& r) {
  std::string out;
  masc::BinWriter w(out);
  masc::save(r.stats, w);
  if (r.fabric) masc::fabric::save(*r.fabric, w);
  return out;
}

std::uint64_t fnv64(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void compute_references(std::vector<JobSpec>& jobs, unsigned threads, bool keep_runs) {
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::string error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      JobSpec& j = jobs[i];
      const masc::SweepResult r = masc::run_sweep_job(j.job, i);
      if (r.status != masc::SweepStatus::kFinished) {
        const std::lock_guard<std::mutex> lock(err_mu);
        error = "reference run of job " + std::to_string(i) + " ended " +
                masc::to_string(r.status) + " " + r.error;
        return;
      }
      const std::string wire = masc::to_json(r.stats);
      j.ref_wire = fnv64(wire);
      j.ref_wire_routed = fnv64(masc::json::serialize(masc::parse_json(wire)));
      j.ref_bin = fnv64(stats_bytes(r));
      auto run = std::make_shared<const masc::CachedSweepRun>(
          masc::CachedSweepRun{r.status, r.stats, r.fabric});
      j.ref_run_bytes = masc::cached_run_bytes(*run);
      if (keep_runs) j.ref_run = std::move(run);
      j.cycles = r.stats.cycles;
      j.instructions = r.stats.instructions;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (!error.empty()) throw std::runtime_error(error);
}

// --- Host speed --------------------------------------------------------------

double probe_host_speed() {
  // A 1 MiB table (beyond L1, within L2) walked by a xorshift stream with
  // a data-dependent branch: integer, memory and branch work in one mix.
  constexpr std::size_t kTable = std::size_t{1} << 18;
  constexpr int kIters = 1 << 20;
  static std::vector<std::uint32_t> table(kTable, 1);
  static std::atomic<std::uint64_t> sink{0};
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, acc = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& slot = table[x & (kTable - 1)];
    acc += slot;
    slot = static_cast<std::uint32_t>(x >> 32) ^ static_cast<std::uint32_t>(acc);
    if (acc & 1) acc += x >> 5;
    else acc ^= x >> 3;
  }
  const std::int64_t t1 = now_ns();
  sink.fetch_add(acc, std::memory_order_relaxed);
  return kIters / (static_cast<double>(t1 - t0) * 1e-9);
}

// --- Random draws ------------------------------------------------------------

namespace {

double uniform01(masc::Rng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(masc::Rng& rng) const {
  const double u = uniform01(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

// --- Misc --------------------------------------------------------------------

std::string scratch_dir(const Options& opt, const std::string& tag) {
  static std::atomic<unsigned> counter{0};
  const std::string dir = opt.out_dir + "/scratch-" + tag + "-" +
                          std::to_string(counter.fetch_add(1));
  remove_tree(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench

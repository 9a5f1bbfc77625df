// The three workloads (perfbench/README.md "Workloads"). Each builds its
// seeded inputs, computes serial references, starts what it drives and
// warms caches (the timed set-up, repeated `repeats` times), then runs
// its measured phases and checks every result against its reference.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "cluster/router.hpp"
#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Latency counted from when the request was due (open loop) or sent
/// (closed loop); a refused or failed request misses any latency limit.
double latency_us(const Request& r) {
  const std::int64_t from = r.due_ns ? r.due_ns : r.sent_ns;
  return r.outcome == 1 ? static_cast<double>(r.done_ns - from) * 1e-3 : kInf;
}

/// A count of the full run (10 s) scaled to this run's length.
std::size_t scaled(double base, const Options& opt, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(base * opt.seconds / 10.0 * scale)));
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Dotted-path lookup of an unsigned counter in a stats JSON document.
std::uint64_t counter(const masc::json::Value& root, const std::string& path) {
  const masc::json::Value* v = &root;
  std::size_t pos = 0;
  while (v && pos <= path.size()) {
    const std::size_t dot = std::min(path.find('.', pos), path.size());
    v = v->find(path.substr(pos, dot - pos));
    pos = dot + 1;
  }
  return v && v->is_number() ? v->as_uint() : 0;
}

struct Delta {
  masc::json::Value before, after;
  std::uint64_t operator()(const std::string& path) const {
    return counter(after, path) - counter(before, path);
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Requests in blocks of `block`: one seeded slot per block gets class
/// `odd_cls`, the others the other class. Fresh requests (class 1) take
/// the next unused job; repeats (class 0) draw one from `pick`.
template <typename Pick>
std::vector<Request> make_requests(std::size_t n, unsigned block,
                                   std::uint8_t odd_cls, std::size_t& next_fresh,
                                   masc::Rng& rng, Pick&& pick) {
  std::vector<Request> reqs(n);
  std::size_t slot = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % block == 0) slot = i + rng.next_below(block);
    Request& r = reqs[i];
    r.cls = i == slot ? odd_cls : static_cast<std::uint8_t>(1 - odd_cls);
    r.job = static_cast<std::uint32_t>(r.cls == 1 ? next_fresh++ : pick());
  }
  return reqs;
}

/// The shared host's speed drifts by tens of percent over seconds, so
/// each measured phase runs in this many slices, interleaved with the
/// run's other phases: every metric then averages the host over the
/// whole run instead of sampling one stretch of it.
constexpr std::size_t kSegments = 8;

/// [lo, hi) of slice `s` of `n` items.
std::pair<std::size_t, std::size_t> segment(std::size_t n, std::size_t s) {
  return {s * n / kSegments, (s + 1) * n / kSegments};
}

/// Open-loop due times of reqs[lo, hi), relative to the slice start.
void schedule(std::vector<Request>& reqs, std::size_t lo, std::size_t hi, double rate) {
  for (std::size_t i = lo; i < hi; ++i)
    reqs[i].due_ns = static_cast<std::int64_t>(static_cast<double>(i - lo) * 1e9 / rate);
}

/// One phase's latencies by class, leg times and refusals.
struct PhaseTally {
  std::vector<double> hit_us, miss_ms, miss_engine_us, miss_wait_ms;
  std::vector<double> submit_ms, result_ms;
  std::uint64_t refused = 0;
};

/// Fold one phase's requests into the run: outcomes, latencies by class,
/// the Stats digest and the simulated work of every verified result.
void tally(const std::vector<Request>& reqs, const std::vector<JobSpec>& jobs,
           WorkloadRun& run, PhaseTally& t) {
  for (const Request& r : reqs) {
    ++run.e2e.attempted;
    double lat_us = latency_us(r);
    if (r.outcome != 1) {
      ++run.e2e.failed;
      if (r.outcome == 2) ++t.refused;
      if (r.outcome == 4) ++run.e2e.mismatched;
    } else {
      const JobSpec& j = jobs[r.job];
      run.sim_cycles += j.cycles;
      run.sim_instructions += j.instructions;
      run.stats_digest = fold(run.stats_digest, j.ref_bin);
      t.submit_ms.push_back(static_cast<double>(r.submit_done_ns - r.sent_ns) * 1e-6);
      t.result_ms.push_back(static_cast<double>(r.done_ns - r.result_sent_ns) * 1e-6);
    }
    if (r.cls == 0) {
      t.hit_us.push_back(lat_us);
    } else {
      t.miss_ms.push_back(lat_us * 1e-3);
      if (r.outcome == 1) {
        t.miss_engine_us.push_back(r.engine_s * 1e6);
        t.miss_wait_ms.push_back(lat_us * 1e-3 - r.engine_s * 1e3);
      }
    }
  }
}

/// Open-loop generator health: how late sends left against the schedule.
constexpr double kSendLateBoundUs = 10'000.0;

void check_schedule(const LoadResult& lr, WorkloadRun& run) {
  const Summary late = summarize(lr.send_late_us);
  run.e2e.add("client.send_late_us_p99", "us", late.high,
              "n=" + std::to_string(late.n) + ", bound " +
                  std::to_string(static_cast<int>(kSendLateBoundUs)));
  if (late.high > kSendLateBoundUs) run.e2e.valid = false;
}

/// Served workloads (serve_hot, route_miss): one open-loop phase at a
/// fixed rate, then one closed-loop phase with a fixed window.
struct ServedPlan {
  std::vector<JobSpec> jobs;
  std::vector<Request> open, closed;
  double rate = 0.0;
  unsigned window = 0;
  unsigned conns = 2;
};

struct ServedOutcome {
  PhaseTally open, closed;
  LoadResult open_lr;      ///< send lateness over every open-loop slice
  double closed_wall_s = 0.0;  ///< summed over the closed-loop slices
};

/// The open and closed loops alternate, slice by slice.
ServedOutcome drive(std::uint16_t port, ServedPlan& plan, bool routed,
                    Tracer& tracer, WorkloadRun& run) {
  ServedOutcome out;
  LoadGen gen(port, plan.conns, plan.jobs, routed, tracer);
  for (std::size_t s = 0; s < kSegments; ++s) {
    run.host_speed.push_back(probe_host_speed());
    const auto [olo, ohi] = segment(plan.open.size(), s);
    schedule(plan.open, olo, ohi, plan.rate);
    LoadResult lr = gen.open_loop(plan.open, olo, ohi);
    out.open_lr.send_late_us.insert(out.open_lr.send_late_us.end(),
                                    lr.send_late_us.begin(), lr.send_late_us.end());
    const auto [clo, chi] = segment(plan.closed.size(), s);
    out.closed_wall_s += gen.closed_loop(plan.closed, clo, chi, plan.window).wall_s;
  }
  tally(plan.open, plan.jobs, run, out.open);
  tally(plan.closed, plan.jobs, run, out.closed);
  check_schedule(out.open_lr, run);
  return out;
}

/// Open-loop tails are medians over this many consecutive windows of a
/// phase, so one stall of the shared host moves one window, not the run.
constexpr std::size_t kWindows = 16;

/// Open-loop latency of one class: the p50 over the whole phase, and as
/// "p99" the median over up to kWindows windows (in schedule order, at
/// least 200 samples each) of each window's highest supported percentile.
void open_latency(const std::vector<Request>& reqs, std::uint8_t cls, double per_us,
                  const std::string& prefix, const std::string& unit, Report& rep) {
  std::vector<double> all;
  for (const Request& r : reqs)
    if (r.cls == cls) all.push_back(latency_us(r) * per_us);
  const std::size_t windows = std::clamp<std::size_t>(all.size() / 200, 1, kWindows);
  std::vector<double> highs;
  Summary win;
  for (std::size_t w = 0; w < windows; ++w) {
    win = summarize(std::vector<double>(all.begin() + static_cast<std::ptrdiff_t>(
                                                          w * all.size() / windows),
                                        all.begin() + static_cast<std::ptrdiff_t>(
                                                          (w + 1) * all.size() / windows)));
    highs.push_back(win.high);
  }
  const Summary s = summarize(all);
  char note[160];
  std::snprintf(note, sizeof note,
                "n=%zu; p99 = median of %zu window p%u (n~%zu each), whole-phase p%u %.4g",
                s.n, windows, win.high_pct, win.n, s.high_pct, s.high);
  rep.add(prefix + "_p50", unit, s.p50, "n=" + std::to_string(s.n));
  rep.add(prefix + "_p99", unit, median(highs), note);
}

void served_metrics(const ServedPlan& plan, const ServedOutcome& o, WorkloadRun& run) {
  double done = 0, mcycles = 0;
  for (const Request& r : plan.closed) {
    if (r.outcome != 1) continue;
    done += 1;
    if (r.cls == 1) mcycles += static_cast<double>(plan.jobs[r.job].cycles) * 1e-6;
  }
  const std::string slices = std::to_string(kSegments) + " slices";
  run.e2e.add("jobs_per_s", "1/s", ratio(done, o.closed_wall_s),
              "closed loop, window " + std::to_string(plan.window) + ", " + slices);
  run.headline = run.e2e.metrics.back().value;
  run.e2e.add("sim_mcycles_per_s", "Mcycles/s", ratio(mcycles, o.closed_wall_s),
              "closed loop, engine-executed (fresh) jobs, " + slices);
  open_latency(plan.open, 0, 1.0, "hit_us", "us", run.e2e);
  open_latency(plan.open, 1, 1e-3, "miss_ms", "ms", run.e2e);
  run.hit_p50_us = summarize(o.open.hit_us).p50;
  run.miss_p50_us = summarize(o.open.miss_ms).p50 * 1e3;
  run.miss_engine_p50_us = median(o.open.miss_engine_us);
}

/// Send every job of `ids` once through the served port (closed loop),
/// failing set-up on any error: used to warm caches.
void warm(std::uint16_t port, const std::vector<JobSpec>& jobs,
          const std::vector<std::size_t>& ids, bool routed) {
  Tracer off(false);
  LoadGen gen(port, 2, jobs, routed, off);
  std::vector<Request> reqs(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    reqs[i].job = static_cast<std::uint32_t>(ids[i]);
  const LoadResult lr = gen.closed_loop(reqs, 0, reqs.size(), 16);
  for (const Request& r : reqs)
    if (r.outcome != 1 || lr.timed_out)
      throw std::runtime_error("cache warm-up request failed (outcome " +
                               std::to_string(r.outcome) + ")");
}

masc::json::Value v1_request(std::uint16_t port, const std::string& body) {
  masc::serve::Client c;
  c.connect("127.0.0.1", port, 5'000);
  return c.request(body);
}

}  // namespace

Families families(std::uint64_t seed) {
  // Iteration constants vary with the seed within fixed bounds; each
  // family draws from its own stream so adding one leaves the others be.
  auto draw = [seed](std::uint64_t tag, unsigned lo, unsigned span) {
    masc::Rng rng(seed * 0x9E3779B97F4A7C15ULL + tag);
    return lo + static_cast<unsigned>(rng.next_below(span));
  };
  Families f;
  f.grid_control = control_program(draw(1, 2'240, 48));
  f.grid_row = row_program(draw(2, 768, 24));
  f.grid_reduction = reduction_program(draw(3, 1'024, 32));
  f.grid_fabric = fabric_program(draw(4, 112, 4));
  f.hot = control_program(draw(5, 224, 8));
  f.route = row_program(draw(6, 112, 4));
  return f;
}

std::vector<std::uint32_t> job_data(masc::Rng& rng, std::size_t i) {
  return {static_cast<std::uint32_t>(rng.next_below(30'000)),
          static_cast<std::uint32_t>(i)};
}

// --- sweep_grid --------------------------------------------------------------

WorkloadRun run_sweep_grid(const Options& opt, double scale, unsigned repeats,
                           Tracer& tracer) {
  WorkloadRun run;
  std::vector<JobSpec> jobs;
  std::vector<masc::SweepJob> grid;
  std::vector<std::size_t> grid_spec;  // grid position -> JobSpec index
  std::shared_ptr<masc::SweepResultCache> warm_cache;
  constexpr unsigned kReplicas = 4;  // seed replicas of every grid point
  constexpr unsigned kResweeps = 3;  // cached re-sweeps after each slice

  for (unsigned rep = 0; rep < repeats; ++rep) {
    jobs.clear();
    grid.clear();
    grid_spec.clear();
    warm_cache.reset();
    run.host_speed.push_back(probe_host_speed());
    run.setup_s.push_back(time_s([&] {
      masc::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 11);
      const Families fam = families(opt.seed);
      const std::string& ctrl = fam.grid_control;
      const std::string& row = fam.grid_row;
      const std::string& red = fam.grid_reduction;
      const std::string& fab = fam.grid_fabric;
      auto data = [&](std::size_t i) { return job_data(rng, i); };
      // Control-bound and row-bound regimes take about half the serial
      // host time each; reduction chains and fabric jobs ride along. The
      // short control jobs are two thirds of the grid, so the per-job
      // median falls inside one class instead of between two.
      const std::size_t n_ctrl = scaled(1'125, opt, scale);
      const std::size_t n_256 = scaled(225, opt, scale);
      const std::size_t n_1024 = scaled(68, opt, scale);
      const std::size_t n_red = scaled(225, opt, scale);
      const std::size_t n_fab = scaled(54, opt, scale);
      const auto src = ProgramForm::kSource;
      for (std::size_t i = 0; i < n_ctrl; ++i)
        jobs.push_back(make_job(ctrl, data(jobs.size()), 16, 16, src));
      for (std::size_t i = 0; i < n_256; ++i)
        jobs.push_back(make_job(row, data(jobs.size()), 256, 16, src));
      for (std::size_t i = 0; i < n_1024; ++i)
        jobs.push_back(make_job(row, data(jobs.size()), 1024, 16, src));
      static constexpr std::uint32_t kRedThreads[] = {1, 4, 16};
      for (std::size_t i = 0; i < n_red; ++i)
        jobs.push_back(make_job(red, data(jobs.size()), 64, kRedThreads[i % 3], src));
      for (std::size_t i = 0; i < n_fab; ++i)
        jobs.push_back(make_job(fab, data(jobs.size()), 16, 16, src, 4));
      compute_references(jobs, 4);
      // The grid: every point in seed replicas, order shuffled by seed.
      for (unsigned r = 0; r < kReplicas; ++r)
        for (std::size_t i = 0; i < jobs.size(); ++i) grid_spec.push_back(i);
      for (std::size_t i = grid_spec.size(); i > 1; --i)
        std::swap(grid_spec[i - 1], grid_spec[rng.next_below(i)]);
      for (std::size_t g = 0; g < grid_spec.size(); ++g) {
        masc::SweepJob j = jobs[grid_spec[g]].job;
        j.seed = g;
        j.label = "g" + std::to_string(g);
        grid.push_back(std::move(j));
      }
      // Warm cache for the repeat-sweep phase: every reference result.
      warm_cache = std::make_shared<masc::SweepResultCache>(256u << 20);
      for (const JobSpec& j : jobs)
        warm_cache->insert(masc::sweep_cache_key(j.job), j.ref_run,
                           masc::cached_run_bytes(*j.ref_run));
    }));
  }

  // Phase 1, the uncached grid on 2 workers (serial engines only), runs
  // in slices; after each slice, phase 2 sweeps the whole grid again
  // through a runner with a warm cache, as a repeat sweep sees it: every
  // point is a hit.
  masc::SweepRunner runner(2);
  runner.set_batch_lanes(1);
  masc::SweepRunner cached(2);
  cached.set_cache(warm_cache);
  std::vector<masc::SweepResult> results;
  std::vector<double> hit_us;   // per hit, as the runner reports it
  std::vector<double> pass_us;  // per grid point, wall time of each re-sweep
  auto check_hits = [&](const std::vector<masc::SweepResult>& hits) {
    for (std::size_t g = 0; g < hits.size(); ++g) {
      ++run.e2e.attempted;
      if (hits[g].status != masc::SweepStatus::kFinished ||
          fnv64(stats_bytes(hits[g])) != jobs[grid_spec[g]].ref_bin) {
        ++run.e2e.failed;
        ++run.e2e.mismatched;
        hit_us.push_back(kInf);
        continue;
      }
      hit_us.push_back(hits[g].host_seconds * 1e6);
      run.stats_digest = fold(run.stats_digest, jobs[grid_spec[g]].ref_bin);
    }
  };
  double wall = 0.0;
  for (std::size_t s = 0; s < kSegments; ++s) {
    run.host_speed.push_back(probe_host_speed());
    const auto [lo, hi] = segment(grid.size(), s);
    const std::vector<masc::SweepJob> slice(grid.begin() + static_cast<std::ptrdiff_t>(lo),
                                            grid.begin() + static_cast<std::ptrdiff_t>(hi));
    std::vector<masc::SweepResult> part;
    const std::int32_t grid_span = tracer.open("sweep.grid");
    wall += time_s([&] { part = runner.run(slice); });
    tracer.close(grid_span);
    std::move(part.begin(), part.end(), std::back_inserter(results));
    for (unsigned pass = 0; pass < kResweeps; ++pass) {
      std::vector<masc::SweepResult> hits;
      const std::int32_t span = tracer.open("sweep.resweep");
      const double pass_s = time_s([&] { hits = cached.run(grid); });
      tracer.close(span);
      pass_us.push_back(pass_s * 1e6 / static_cast<double>(grid.size()));
      check_hits(hits);
    }
  }

  std::vector<double> miss_ms;
  double busy_s = 0.0;
  std::uint64_t cycles = 0;
  for (std::size_t g = 0; g < results.size(); ++g) {
    const masc::SweepResult& r = results[g];
    const JobSpec& j = jobs[grid_spec[g]];
    ++run.e2e.attempted;
    const bool ok = r.status == masc::SweepStatus::kFinished &&
                    fnv64(stats_bytes(r)) == j.ref_bin;
    if (!ok) {
      ++run.e2e.failed;
      ++run.e2e.mismatched;
      miss_ms.push_back(kInf);
      continue;
    }
    miss_ms.push_back(r.host_seconds * 1e3);
    busy_s += r.host_seconds;
    cycles += r.stats.cycles;
    run.sim_instructions += r.stats.instructions;
    run.stats_digest = fold(run.stats_digest, j.ref_bin);
  }
  run.sim_cycles += cycles;


  const std::string slices = "grid of " + std::to_string(grid.size()) + " jobs in " +
                             std::to_string(kSegments) + " slices";
  run.e2e.add("jobs_per_s", "1/s", ratio(static_cast<double>(grid.size()), wall), slices);
  run.headline = run.e2e.metrics.back().value;
  run.e2e.add("sim_mcycles_per_s", "Mcycles/s", ratio(static_cast<double>(cycles) * 1e-6, wall),
              slices);
  // A repeat sweep's user waits for the whole pass, so its hit latency is
  // the pass's wall time per point: the lookup plus the runner's dispatch.
  const Summary passes = summarize(pass_us);
  run.e2e.add_summary("hit_us", "us", passes);
  run.e2e.metrics[run.e2e.metrics.size() - 2].note +=
      " re-sweeps, wall time per grid point";
  run.e2e.add_summary("lookup_us", "us", summarize(hit_us));
  run.e2e.add_summary("miss_ms", "ms", summarize(miss_ms));
  run.hit_p50_us = passes.p50;
  run.miss_p50_us = summarize(miss_ms).p50 * 1e3;
  run.miss_engine_p50_us = run.miss_p50_us;
  run.layer.push_back({"sweep.worker_busy_share", "share",
                       ratio(busy_s, 2.0 * wall), "grid phase"});
  run.e2e.add("peak_rss_mb", "MB", peak_rss_mb());
  return run;
}

// --- serve_hot ---------------------------------------------------------------

WorkloadRun run_serve_hot(const Options& opt, double scale, unsigned repeats,
                          Tracer& tracer) {
  WorkloadRun run;
  constexpr std::size_t kHot = 1'200;  // repeat set, larger than the L1
  constexpr double kRate = 4'000.0;    // open-loop requests per second
  ServedPlan plan;
  std::unique_ptr<masc::serve::Server> server;
  std::string dir;

  for (unsigned rep = 0; rep < repeats; ++rep) {
    if (server) server->stop();
    server.reset();
    if (!dir.empty()) remove_tree(dir);
    plan = ServedPlan{};
    run.host_speed.push_back(probe_host_speed());
    run.setup_s.push_back(time_s([&] {
      masc::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 22);
      const std::string src = families(opt.seed).hot;
      const std::size_t n_open = scaled(kRate * 5.0, opt, scale);
      const std::size_t n_closed = scaled(54'000, opt, scale);
      const Zipf zipf(kHot, 0.99);
      std::size_t next_fresh = kHot;
      auto pick = [&] { return zipf.draw(rng); };
      plan.open = make_requests(n_open, 10, 1, next_fresh, rng, pick);
      plan.closed = make_requests(n_closed, 10, 1, next_fresh, rng, pick);
      // One program text for every job: repeats and fresh jobs differ
      // only in their data words, so fresh misses batch together.
      for (std::size_t i = 0; i < next_fresh; ++i)
        plan.jobs.push_back(make_job(src, job_data(rng, i), 16, 16,
                                     ProgramForm::kSource));
      compute_references(plan.jobs, 4, false);
      plan.rate = kRate;
      plan.window = 16;

      masc::serve::ServerOptions so;
      so.workers = 2;
      so.batch_lanes = 8;
      // L1 holds about two thirds of the repeat set; the cold end of the
      // Zipf tail is served from the L2 disk tier.
      so.cache_bytes = plan.jobs[0].ref_run_bytes * kHot * 2 / 3;
      dir = scratch_dir(opt, "serve_hot");
      so.cache_dir = dir;
      server = std::make_unique<masc::serve::Server>(so);
      server->start();
      // Warm in chunks, flushing each to disk, so the write-behind queue
      // never sheds a repeat-set record.
      for (std::size_t lo = 0; lo < kHot; lo += 256) {
        std::vector<std::size_t> ids;
        for (std::size_t i = lo; i < std::min(kHot, lo + 256); ++i) ids.push_back(i);
        warm(server->port(), plan.jobs, ids, false);
        v1_request(server->port(), "{\"op\":\"cache_flush\"}");
      }
    }));
  }

  Delta d;
  d.before = masc::parse_json(server->stats_json());
  const ServedOutcome o = drive(server->port(), plan, false, tracer, run);
  d.after = masc::parse_json(server->stats_json());
  server->stop();
  server.reset();
  remove_tree(dir);

  served_metrics(plan, o, run);
  const double hits = static_cast<double>(d("cache.hits"));
  run.layer.push_back({"cache.hit_share", "share",
                       ratio(hits, hits + static_cast<double>(d("cache.misses"))),
                       "server stats"});
  run.layer.push_back({"cache.l2_hit_share", "share",
                       ratio(static_cast<double>(d("cache.l2_hits")), hits),
                       "server stats"});
  run.layer.push_back({"cache.demote_drops", "count",
                       static_cast<double>(d("cache.demote_drops")), "server stats"});
  run.layer.push_back({"cache.flights_joined", "count",
                       static_cast<double>(d("cache.flights.joined")),
                       "server stats"});
  run.layer.push_back({"sim.batch.occupancy_mean", "lanes",
                       ratio(static_cast<double>(d("batch.batched_jobs")),
                             static_cast<double>(d("batch.batch_flushes"))),
                       "server stats"});
  run.layer.push_back({"sim.batch.replayed_share", "share",
                       ratio(static_cast<double>(d("batch.replayed_jobs")),
                             static_cast<double>(d("batch.batched_jobs"))),
                       "server stats"});
  run.layer.push_back({"serve.miss_wait_ms", "ms", median(o.open.miss_wait_ms),
                       "p50 over open-loop misses of latency - engine time, "
                       "minus net.rtt_us"});
  run.layer.push_back(
      {"serve.refused_share", "share",
       ratio(static_cast<double>(o.open.refused + o.closed.refused),
             static_cast<double>(plan.open.size() + plan.closed.size())),
       "client view"});
  run.e2e.add("peak_rss_mb", "MB", peak_rss_mb());
  return run;
}

// --- route_miss --------------------------------------------------------------

WorkloadRun run_route_miss(const Options& opt, double scale, unsigned repeats,
                           Tracer& tracer) {
  WorkloadRun run;
  constexpr std::size_t kRepeatSet = 32;
  constexpr double kRate = 700.0;
  ServedPlan plan;
  std::vector<std::unique_ptr<masc::serve::Server>> backends;
  std::unique_ptr<masc::cluster::Router> router;

  auto teardown = [&] {
    if (router) router->stop();
    router.reset();
    for (auto& b : backends) b->stop();
    backends.clear();
  };
  for (unsigned rep = 0; rep < repeats; ++rep) {
    teardown();
    plan = ServedPlan{};
    run.host_speed.push_back(probe_host_speed());
    run.setup_s.push_back(time_s([&] {
      masc::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 33);
      const std::string src = families(opt.seed).route;
      const std::size_t n_open = scaled(kRate * 7.0, opt, scale);
      const std::size_t n_closed = scaled(6'000, opt, scale);
      std::size_t next_fresh = kRepeatSet;
      auto pick = [&] { return rng.next_below(kRepeatSet); };
      // One request in eight repeats a warmed job; the rest are fresh.
      plan.open = make_requests(n_open, 8, 0, next_fresh, rng, pick);
      plan.closed = make_requests(n_closed, 8, 0, next_fresh, rng, pick);
      for (std::size_t i = 0; i < next_fresh; ++i)
        plan.jobs.push_back(make_job(src, job_data(rng, i), 256, 16,
                                     ProgramForm::kImage));
      compute_references(plan.jobs, 4, false);
      plan.rate = kRate;
      plan.window = 12;  // above the router's 8 blocking handler threads

      masc::cluster::RouterOptions ro;
      for (int b = 0; b < 2; ++b) {
        masc::serve::ServerOptions so;
        so.workers = 1;
        so.cache_bytes = 64u << 20;
        backends.push_back(std::make_unique<masc::serve::Server>(so));
        backends.back()->start();
        ro.backends.push_back({"127.0.0.1", backends.back()->port()});
      }
      router = std::make_unique<masc::cluster::Router>(ro);
      router->start();
      std::vector<std::size_t> ids(kRepeatSet);
      std::iota(ids.begin(), ids.end(), 0);
      warm(router->port(), plan.jobs, ids, true);
    }));
  }

  Delta d;
  d.before = masc::parse_json(router->stats_json());
  const ServedOutcome o = drive(router->port(), plan, true, tracer, run);
  d.after = masc::parse_json(router->stats_json());
  teardown();

  served_metrics(plan, o, run);
  run.layer.push_back({"route.submit_ms", "ms", median(o.open.submit_ms),
                       "open loop, client-timed submit leg"});
  run.layer.push_back({"route.result_wait_ms", "ms", median(o.open.result_ms),
                       "open loop, client-timed result leg"});
  run.layer.push_back({"route.rerouted_share", "share",
                       ratio(static_cast<double>(d("router.jobs_rerouted")),
                             static_cast<double>(d("router.jobs_routed"))),
                       "router stats"});
  run.e2e.add("peak_rss_mb", "MB", peak_rss_mb());
  return run;
}

}  // namespace perfbench

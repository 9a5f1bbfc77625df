// Part 2 of the traced run: each layer's public function called directly
// on the workloads' own inputs, every call inside a span. Each metric is
// the median self time of its span over many calls.
#include <stdexcept>
#include <tuple>

#include "assembler/assembler.hpp"
#include "bench.hpp"
#include "cluster/router.hpp"
#include "common/cache_store.hpp"
#include "common/json.hpp"
#include "fabric/fabric.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/lane_batch.hpp"
#include "sim/machine.hpp"

namespace perfbench {

namespace {

namespace v2 = masc::serve::v2;

/// Call `fn` `n` times, each inside a span named `name`; median self µs.
template <typename Fn>
double per_call_us(Tracer& t, const char* name, std::size_t n, Fn&& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    const ScopedSpan s(t, name, -1, i);
    fn(i);
  }
  return median(t.self_us(name));
}

/// Host µs per 1,000 simulated cycles of `job` on a bare Machine (or a
/// Fabric when the job has one), median over repetitions.
double us_per_kcycle(Tracer& t, const char* name, const masc::SweepJob& job,
                     unsigned reps) {
  std::vector<double> rates;
  for (unsigned i = 0; i < reps; ++i) {
    const ScopedSpan s(t, name, -1, i);
    const std::int64_t t0 = now_ns();
    std::uint64_t cycles = 0;
    if (job.fabric) {
      masc::fabric::Fabric f(job.cfg, *job.fabric);
      f.load(job.program);
      f.run(job.max_cycles);
      cycles = f.fleet_stats().cycles;
    } else {
      masc::Machine m(job.cfg);
      m.load(job.program);
      m.run(job.max_cycles);
      cycles = m.stats().cycles;
    }
    rates.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                    (static_cast<double>(cycles) * 1e-3));
  }
  return median(rates);
}

}  // namespace

void probe_layers(const Options& opt, Tracer& t, std::vector<Metric>& out) {
  const Families fam = families(opt.seed);
  masc::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 44);

  // serve_hot's inputs: one program text, per-job data.
  std::vector<JobSpec> hot;
  for (std::size_t i = 0; i < 256; ++i)
    hot.push_back(make_job(fam.hot, job_data(rng, i), 16, 16, ProgramForm::kSource));
  compute_references(hot, 4);

  // --- assembler and protocol (serve_hot submit path) ---------------------
  const double asm_us = per_call_us(t, "assembler.assemble", 2'000, [&](std::size_t i) {
    masc::Program p = masc::assemble(hot[i % hot.size()].source);
    if (p.text.empty()) throw std::runtime_error("empty program");
  });
  out.push_back({"assembler.assemble_us", "us", asm_us, "serve_hot source"});

  // job_from_json assembles the source inside. Its self time is each
  // decode minus an assembly of the same source timed right after it, so
  // both halves of the pair see the same host speed.
  std::vector<double> decode_self_us;
  for (std::size_t i = 0; i < 2'000; ++i) {
    const JobSpec& h = hot[i % hot.size()];
    const std::string body = "{\"op\":\"submit\",\"jobs\":[" + h.wire + "]}";
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan s(t, "protocol.submit_decode", -1, i);
      const masc::json::Value req = masc::parse_json(body);
      masc::SweepJob j = masc::serve::job_from_json(req.find("jobs")->as_array()[0]);
      if (j.program.text.empty()) throw std::runtime_error("empty job");
    }
    const std::int64_t t1 = now_ns();
    if (masc::assemble(h.source).text.empty()) throw std::runtime_error("empty program");
    const std::int64_t t2 = now_ns();
    decode_self_us.push_back(static_cast<double>((t1 - t0) - (t2 - t1)) * 1e-3);
  }
  out.push_back({"protocol.submit_decode_us", "us", median(decode_self_us),
                 "parse_json + job_from_json, minus a paired assembly of the same source"});

  const masc::SweepResult res = masc::run_sweep_job(hot[0].job, 7);
  const double encode_us =
      per_call_us(t, "protocol.result_encode", 5'000, [&](std::size_t i) {
        const std::string resp = "{\"ok\":true,\"type\":\"result\",\"id\":" +
                                 std::to_string(i) + ",\"result\":" +
                                 masc::to_json(res, hot[0].job.cfg) + "}";
        if (resp.empty()) throw std::runtime_error("empty result");
      });
  out.push_back({"protocol.result_encode_us", "us", encode_us, "serve_hot result"});

  const std::string submit_body = "{\"op\":\"submit\",\"jobs\":[" + hot[0].wire + "]}";
  const std::string submit_resp = "{\"ok\":true,\"type\":\"submitted\",\"ids\":[1]}";
  const std::string result_req =
      "{\"op\":\"result\",\"id\":1,\"wait\":true,\"release\":true}";
  const std::string result_resp = "{\"ok\":true,\"type\":\"result\",\"id\":1,"
                                  "\"result\":" + masc::to_json(res, hot[0].job.cfg) + "}";
  const double codec_us =
      per_call_us(t, "protocol_v2.frame_codec", 5'000, [&](std::size_t i) {
        // The four frames of one request: submit and result, each way.
        const auto id = static_cast<std::uint32_t>(i);
        std::size_t bytes = 0;
        for (const auto& [op, kind, body] :
             {std::tuple{v2::Op::kSubmit, v2::Kind::kRequest, &submit_body},
              std::tuple{v2::Op::kSubmit, v2::Kind::kOk, &submit_resp},
              std::tuple{v2::Op::kResult, v2::Kind::kRequest, &result_req},
              std::tuple{v2::Op::kResult, v2::Kind::kOk, &result_resp}}) {
          const std::string frame = v2::encode(op, kind, id, *body);
          bytes += v2::decode(frame).body.size();
        }
        if (bytes == 0) throw std::runtime_error("empty frames");
      });
  out.push_back({"protocol_v2.frame_codec_us", "us", codec_us,
                 "encode + decode of one request's four frames"});

  // --- net: a v2 round trip against an idle server --------------------------
  {
    masc::serve::ServerOptions so;
    so.workers = 1;
    so.cache_bytes = 1u << 20;
    masc::serve::Server server(so);
    server.start();
    masc::serve::Client c;
    c.connect("127.0.0.1", server.port(), 5'000);
    if (c.negotiate() != 2) throw std::runtime_error("server refused v2");
    // Protocol v2 has no ping op; a binary cache_get of an absent key is
    // its lightest round trip.
    const masc::Hash128 absent{0x5eed, opt.seed};
    std::string record;
    const double rtt = per_call_us(t, "net.rtt", 5'000, [&](std::size_t) {
      if (c.cache_get_v2(absent, &record)) throw std::runtime_error("phantom hit");
    });
    out.push_back({"net.rtt_us", "us", rtt, "v2 cache_get of an absent key, idle server"});
    c.close();
    server.stop();
  }

  // --- cache (serve_hot keys and records) -----------------------------------
  std::vector<masc::Hash128> keys;
  for (const JobSpec& j : hot) keys.push_back(masc::sweep_cache_key(j.job));
  out.push_back({"cache.key_us", "us",
                 per_call_us(t, "cache.key", 5'000,
                             [&](std::size_t i) {
                               if (masc::sweep_cache_key(hot[i % hot.size()].job) !=
                                   keys[i % hot.size()])
                                 throw std::runtime_error("unstable cache key");
                             }),
                 "sweep_cache_key"});
  {
    masc::SweepResultCache l1(64u << 20);
    for (std::size_t i = 0; i < hot.size(); ++i)
      l1.insert(keys[i], hot[i].ref_run, masc::cached_run_bytes(*hot[i].ref_run));
    out.push_back({"cache.l1_lookup_us", "us",
                   per_call_us(t, "cache.l1_lookup", 10'000,
                               [&](std::size_t i) {
                                 if (!l1.lookup(keys[i % keys.size()]))
                                   throw std::runtime_error("L1 lost a record");
                               }),
                   "SweepResultCache::lookup, RAM hit"});
  }
  {
    const std::string dir = scratch_dir(opt, "probe_l2");
    {
      // A 1-byte L1 cannot keep promotions, so every lookup reads disk.
      masc::SweepResultCache l2(1, 1);
      masc::CacheStoreOptions co;
      co.dir = dir;
      auto store = std::make_unique<masc::CacheStore>(co);
      store->open();
      l2.attach_disk(std::move(store));
      const double insert_us =
          per_call_us(t, "cache.insert", hot.size(), [&](std::size_t i) {
            l2.insert(keys[i], hot[i].ref_run, masc::cached_run_bytes(*hot[i].ref_run));
          });
      out.push_back({"cache.insert_us", "us", insert_us,
                     "SweepResultCache::insert with the L2 tier attached"});
      l2.drain_writes();
      out.push_back({"cache.l2_lookup_us", "us",
                     per_call_us(t, "cache.l2_lookup", 3'000,
                                 [&](std::size_t i) {
                                   if (!l2.lookup(keys[i % keys.size()]))
                                     throw std::runtime_error("L2 lost a record");
                                 }),
                     "SweepResultCache::lookup, disk hit"});
    }
    remove_tree(dir);
  }

  // --- engines (sweep_grid jobs, serve_hot batches) -------------------------
  const masc::SweepJob p16 =
      make_job(fam.grid_control, job_data(rng, 0), 16, 16, ProgramForm::kSource).job;
  const masc::SweepJob p256 =
      make_job(fam.grid_row, job_data(rng, 1), 256, 16, ProgramForm::kSource).job;
  const masc::SweepJob p1024 =
      make_job(fam.grid_row, job_data(rng, 2), 1024, 16, ProgramForm::kSource).job;
  const masc::SweepJob fab =
      make_job(fam.grid_fabric, job_data(rng, 3), 16, 16, ProgramForm::kSource, 4).job;
  out.push_back({"sim.machine.us_per_kcycle.p16", "us/kcycle",
                 us_per_kcycle(t, "sim.machine.p16", p16, 15), "Machine, sweep_grid control job"});
  out.push_back({"sim.machine.us_per_kcycle.p256", "us/kcycle",
                 us_per_kcycle(t, "sim.machine.p256", p256, 15), "Machine, sweep_grid row job"});
  out.push_back({"sim.machine.us_per_kcycle.p1024", "us/kcycle",
                 us_per_kcycle(t, "sim.machine.p1024", p1024, 7), "Machine, sweep_grid row job"});
  out.push_back({"sim.fabric.us_per_fleet_kcycle", "us/kcycle",
                 us_per_kcycle(t, "sim.fabric", fab, 9), "4-chip Fabric, fleet cycles"});
  {
    std::vector<masc::LaneJob> lanes;
    std::uint64_t lane_cycles = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      lanes.push_back({&hot[i].job, i});
      lane_cycles += hot[i].cycles;
    }
    std::vector<double> rates;
    for (int rep = 0; rep < 25; ++rep) {
      const ScopedSpan s(t, "sim.batch", -1, static_cast<std::uint64_t>(rep));
      const std::int64_t t0 = now_ns();
      const std::vector<masc::SweepResult> r = masc::run_lane_batch(lanes);
      rates.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                      (static_cast<double>(lane_cycles) * 1e-3));
      for (std::size_t i = 0; i < r.size(); ++i)
        if (fnv64(stats_bytes(r[i])) != hot[i].ref_bin)
          throw std::runtime_error("lane batch differs from serial");
    }
    out.push_back({"sim.batch.us_per_lane_kcycle", "us/kcycle", median(rates),
                   "run_lane_batch, 8 serve_hot lanes"});
  }

  // --- route hop: the same fresh jobs routed vs sent to one backend ---------
  {
    std::vector<JobSpec> route;
    for (std::size_t i = 0; i < 150; ++i)
      route.push_back(make_job(fam.route, job_data(rng, 1'000'000 + i), 256, 16,
                               ProgramForm::kImage));
    compute_references(route, 4);
    auto latencies = [&](std::uint16_t port, bool routed) {
      std::vector<Request> reqs(route.size());
      for (std::size_t i = 0; i < reqs.size(); ++i)
        reqs[i].job = static_cast<std::uint32_t>(i);
      LoadGen gen(port, 1, route, routed, t);
      gen.closed_loop(reqs, 0, reqs.size(), 1);
      std::vector<double> ms;
      for (const Request& r : reqs) {
        if (r.outcome != 1) throw std::runtime_error("route probe request failed");
        ms.push_back(static_cast<double>(r.done_ns - r.sent_ns) * 1e-6);
      }
      return median(ms);
    };
    auto backend = [] {
      masc::serve::ServerOptions so;
      so.workers = 1;
      so.cache_bytes = 64u << 20;
      auto s = std::make_unique<masc::serve::Server>(so);
      s->start();
      return s;
    };
    auto direct = backend();
    const double direct_ms = latencies(direct->port(), false);
    direct->stop();
    std::vector<std::unique_ptr<masc::serve::Server>> fleet;
    masc::cluster::RouterOptions ro;
    for (int b = 0; b < 2; ++b) {
      fleet.push_back(backend());
      ro.backends.push_back({"127.0.0.1", fleet.back()->port()});
    }
    masc::cluster::Router router(ro);
    router.start();
    const double routed_ms = latencies(router.port(), true);
    router.stop();
    for (auto& s : fleet) s->stop();
    out.push_back({"route.hop_overhead_ms", "ms", routed_ms - direct_ms,
                   "p50 routed minus p50 direct, same 150 fresh jobs, one in flight"});
  }
}

}  // namespace perfbench

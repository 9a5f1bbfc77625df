// Pipelined protocol-v2 load generator: open loop (requests sent at
// their scheduled times, latency counted from the schedule) and closed
// loop (a fixed window of requests in flight). Each connection has one
// receiver thread; any thread may write a frame under the connection's
// send mutex. Responses are matched to requests by the v2 request id.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "serve/framing.hpp"

namespace perfbench {

namespace v2 = masc::serve::v2;

struct LoadGen::Conn {
  int fd = -1;
  std::mutex send_mu;
  std::thread reader;
};

namespace {

// Request ids carry the request index and the leg (0 submit, 1 result).
std::uint32_t rid(std::uint32_t idx, unsigned leg) { return idx * 2u + leg; }

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             " failed");
  }
  masc::serve::set_nodelay(fd);
  return fd;
}

/// The balanced JSON object that follows `"key":` in `text`.
std::string_view json_object_after(std::string_view text, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + needle.size();
  if (start >= text.size() || text[start] != '{') return {};
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = start; i < text.size(); ++i) {
    const char c = text[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{') ++depth;
    else if (c == '}' && --depth == 0) return text.substr(start, i - start + 1);
  }
  return {};
}

}  // namespace

LoadGen::LoadGen(std::uint16_t port, unsigned conns,
                 const std::vector<JobSpec>& jobs, bool routed, Tracer& tracer)
    : jobs_(jobs), routed_(routed), tracer_(tracer) {
  for (unsigned i = 0; i < conns; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = connect_loopback(port);
    conns_.push_back(std::move(c));
  }
  for (auto& c : conns_) {
    Conn* cp = c.get();
    cp->reader = std::thread([this, cp] {
      std::string payload;
      try {
        while (masc::serve::read_frame(cp->fd, payload))
          on_frame(*cp, std::move(payload));
      } catch (const std::exception&) {
        // Connection torn down (shutdown in the destructor, or the
        // server went away): unfinished requests time out in wait_all.
      }
    });
  }
}

LoadGen::~LoadGen() {
  for (auto& c : conns_) ::shutdown(c->fd, SHUT_RDWR);
  for (auto& c : conns_) {
    if (c->reader.joinable()) c->reader.join();
    ::close(c->fd);
  }
}

void LoadGen::send_submit(Conn& c, std::vector<Request>& reqs, std::uint32_t idx) {
  Request& r = reqs[idx];
  const std::string body =
      "{\"op\":\"submit\",\"jobs\":[" + jobs_[r.job].wire + "]}";
  const std::string frame =
      v2::encode(v2::Op::kSubmit, v2::Kind::kRequest, rid(idx, 0), body);
  const std::lock_guard<std::mutex> lock(c.send_mu);
  r.sent_ns = now_ns();
  masc::serve::write_frame(c.fd, frame);
}

void LoadGen::finish(Conn& c, std::vector<Request>& reqs, std::uint32_t idx) {
  const Request& r = reqs[idx];
  if (tracer_.enabled()) {
    // The request span starts when the request was due (open loop) or
    // sent (closed loop): that is where its latency is counted from.
    const std::int32_t span = tracer_.record(
        "request", r.due_ns ? r.due_ns : r.sent_ns, r.done_ns, -1, idx);
    tracer_.record("submit", r.sent_ns, r.submit_done_ns, span, idx);
    if (r.result_sent_ns)
      tracer_.record("result", r.result_sent_ns, r.done_ns, span, idx);
  }
  // Issue the closed loop's next request before counting this one done:
  // once the count is complete nothing of this phase is touched again.
  if (closed_) {
    const std::size_t next = next_.fetch_add(1);
    if (next < end_) send_submit(c, reqs, static_cast<std::uint32_t>(next));
  }
  bool all_done;
  {
    const std::lock_guard<std::mutex> lock(done_mu_);
    all_done = ++done_ == count_;
  }
  if (all_done) done_cv_.notify_all();
}

void LoadGen::on_frame(Conn& c, std::string&& payload) {
  const std::int64_t t = now_ns();
  const v2::Frame f = v2::decode(payload);
  const std::uint32_t idx = f.request_id / 2;
  std::vector<Request>* reqs = reqs_.load();
  if (reqs == nullptr || idx >= reqs->size()) return;
  Request& r = (*reqs)[idx];
  if (f.request_id % 2 == 0) {
    r.submit_done_ns = t;
    // {"ok":true,"type":"submitted","ids":[N],...}
    const std::string_view body = f.body;
    const std::size_t ids = body.find("\"ids\":[");
    if (f.kind != v2::Kind::kOk || ids == std::string_view::npos) {
      r.done_ns = t;
      r.outcome = body.find("queue_full") != std::string_view::npos ? 2 : 3;
      finish(c, *reqs, idx);
      return;
    }
    const unsigned long long id =
        std::strtoull(body.data() + ids + 7, nullptr, 10);
    const std::string req = "{\"op\":\"result\",\"id\":" + std::to_string(id) +
                            ",\"wait\":true,\"release\":true,"
                            "\"timeout_ms\":60000}";
    const std::string frame =
        v2::encode(v2::Op::kResult, v2::Kind::kRequest, rid(idx, 1), req);
    const std::lock_guard<std::mutex> lock(c.send_mu);
    r.result_sent_ns = now_ns();
    masc::serve::write_frame(c.fd, frame);
    return;
  }
  r.done_ns = t;
  const std::string_view body = f.body;
  if (f.kind != v2::Kind::kOk ||
      body.find("\"status\":\"finished\"") == std::string_view::npos) {
    r.outcome = 3;
  } else {
    // Identity gate on the served bytes: the result's Stats object must
    // equal the serial reference's (the router re-serializes the body).
    const JobSpec& j = jobs_[r.job];
    const std::string_view stats = json_object_after(body, "stats");
    const std::uint64_t want = routed_ ? j.ref_wire_routed : j.ref_wire;
    r.outcome = !stats.empty() && fnv64(stats) == want ? 1 : 4;
    const std::size_t hs = body.find("\"host_seconds\":");
    if (hs != std::string_view::npos)
      r.engine_s = std::strtod(body.data() + hs + 15, nullptr);
  }
  finish(c, *reqs, idx);
}

LoadResult LoadGen::wait_all(std::int64_t start_ns, std::size_t n) {
  LoadResult out;
  std::unique_lock<std::mutex> lock(done_mu_);
  const bool ok = done_cv_.wait_for(lock, std::chrono::seconds(90),
                                    [&] { return done_ == n; });
  out.wall_s = static_cast<double>(now_ns() - start_ns) * 1e-9;
  if (!ok) out.timed_out = n - done_;
  return out;
}

void LoadGen::begin(std::vector<Request>& reqs, std::size_t lo, std::size_t hi,
                    bool closed) {
  const std::lock_guard<std::mutex> lock(done_mu_);
  done_ = 0;
  count_ = hi - lo;
  end_ = hi;
  closed_ = closed;
  reqs_ = &reqs;
}

LoadResult LoadGen::open_loop(std::vector<Request>& reqs, std::size_t lo,
                              std::size_t hi) {
  // A thread that sleeps to its due time wakes up to tens of µs late on a
  // virtual machine; the last stretch is spun so that lateness does not
  // count against the server.
  constexpr std::int64_t kSpinNs = 150'000;
  begin(reqs, lo, hi, false);
  const std::int64_t start = now_ns() + 2'000'000;  // 2 ms head start
  for (std::size_t i = lo; i < hi; ++i) reqs[i].due_ns += start;
  std::vector<double> late;
  late.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    const std::int64_t due = reqs[i].due_ns;
    if (due - now_ns() > kSpinNs)
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due - kSpinNs)));
    while (now_ns() < due) {
    }
    late.push_back(static_cast<double>(now_ns() - due) * 1e-3);
    send_submit(*conns_[i % conns_.size()], reqs, static_cast<std::uint32_t>(i));
  }
  LoadResult out = wait_all(start, hi - lo);
  out.send_late_us = std::move(late);
  reqs_ = nullptr;
  return out;
}

LoadResult LoadGen::closed_loop(std::vector<Request>& reqs, std::size_t lo,
                                std::size_t hi, unsigned window) {
  const std::size_t first = std::min<std::size_t>(lo + window, hi);
  next_.store(first);
  begin(reqs, lo, hi, true);
  const std::int64_t start = now_ns();
  for (std::size_t i = lo; i < first; ++i)
    send_submit(*conns_[i % conns_.size()], reqs, static_cast<std::uint32_t>(i));
  LoadResult out = wait_all(start, hi - lo);
  reqs_ = nullptr;
  return out;
}

}  // namespace perfbench

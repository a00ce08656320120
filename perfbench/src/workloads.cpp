#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "core/binding.hpp"
#include "core/equivalence.hpp"
#include "core/gs_cache.hpp"
#include "graph/binding_structure.hpp"
#include "gs/gale_shapley.hpp"
#include "incremental/mutation.hpp"
#include "incremental/rematch.hpp"
#include "observability/metrics.hpp"
#include "prefs/generators.hpp"
#include "prefs/io.hpp"
#include "prefs/matching_io.hpp"
#include "resilience/solve_ladder.hpp"
#include "serve/engine.hpp"
#include "serve/fd_stream.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace kstable;

constexpr Gender kGenders = 3;
/// Exact counters (proposal shares, invalidated slots) cover this many
/// leading churn steps, so they repeat exactly for a seed however many
/// steps the timed window fits.
constexpr std::int64_t kExactSteps = 256;
/// SOLVEs the serve_rt client keeps outstanding on its one connection:
/// `kmatch ping`'s default window. Against two workers, 4 outstanding splits
/// latencies into two modes (a worker free or not on arrival) with the
/// median between them; at 8 every request queues and the modes merge.
constexpr std::size_t kOutstanding = 8;
/// Traced runs cut the window into this many slices, alternately untraced
/// and traced, to measure tracing overhead within one process.
constexpr int kSlices = 4;
/// Untraced runs report throughput and p50 as medians over this many equal
/// stretches of the window (see summarize_stretches).
constexpr int kStretches = 10;

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Independent input streams derived from the one --seed argument.
Rng input_stream(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + salt);
}

/// The ladder options ServeEngine builds for a SOLVE without a client
/// deadline: the default 1000 ms request budget split evenly over the strict
/// rungs plus the degraded rung.
resilience::FallbackOptions serve_ladder_options() {
  const serve::ServeLimits limits;
  const int rungs =
      limits.max_tree_attempts + (limits.allow_degraded ? 1 : 0);
  resilience::FallbackOptions opts;
  opts.per_attempt.wall_ms = limits.default_deadline_ms / std::max(rungs, 1);
  opts.max_tree_attempts = limits.max_tree_attempts;
  opts.allow_degraded = limits.allow_degraded;
  return opts;
}

/// One solve as ServeEngine runs it: a fresh per-solve edge cache shared by
/// the ladder's rungs.
resilience::FallbackReport ladder_solve(const KPartiteInstance& inst) {
  core::GsEdgeCache cache(inst.genders());
  auto opts = serve_ladder_options();
  opts.cache = &cache;
  return resilience::solve_with_fallback(inst, opts);
}

/// Every per-edge match array plus the assembled families.
std::uint64_t fingerprint(const core::BindingResult& result) {
  Fingerprint f;
  for (const auto& edge : result.edge_results) {
    f.add(edge.proposer_gender);
    f.add(edge.responder_gender);
    f.add(edge.proposer_match);
    f.add(edge.responder_match);
  }
  if (result.has_matching()) {
    f.add(result.matching().raw());
  } else {
    f.add(-1);
  }
  return f.value();
}

/// Fingerprint of a deliberately corrupted copy (one proposer re-pointed):
/// what a wrong matching looks like to the checks.
std::uint64_t corrupted_fingerprint(core::BindingResult result) {
  auto& match = result.edge_results.at(0).proposer_match;
  match.at(0) = match.at(0) == 0 ? 1 : 0;
  return fingerprint(result);
}

/// The reference check: every binary binding stable (gs::is_stable_binding,
/// linear in the table size) and the families a consistent perfect k-ary
/// matching.
bool binding_is_valid(const KPartiteInstance& inst,
                      const core::BindingResult& result) {
  for (const auto& edge : result.edge_results) {
    if (!gs::is_stable_binding(inst, edge)) return false;
  }
  return result.equivalence.consistent && result.has_matching() &&
         result.equivalence.class_count == inst.per_gender();
}

template <class Setup>
double median_setup_s(std::int32_t reps, Setup&& setup) {
  std::vector<double> seconds;
  for (std::int32_t r = 0; r < std::max(reps, 1); ++r) {
    const auto t0 = Clock::now();
    setup();
    seconds.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return median(seconds);
}

/// Which slice of a traced window `elapsed_ms` falls in is traced.
bool traced_slice(bool traced, double elapsed_ms, double window_ms) {
  if (!traced) return false;
  const int slice = std::min(
      kSlices - 1, static_cast<int>(elapsed_ms / (window_ms / kSlices)));
  return slice % 2 == 1;
}

/// One op of a timed window: when it completed (ms since the window
/// opened) and how long it took.
struct Completion {
  double at_ms = 0.0;
  double op_ms = 0.0;
};

/// Latencies of one timed window, split by slice kind ([1] = traced).
struct Window {
  std::vector<double> latency_ms[2];
  double busy_ms[2] = {0.0, 0.0};
  std::int64_t ops = 0;
  std::vector<Completion> completions;  ///< every op, in completion order

  [[nodiscard]] std::vector<double> all_latencies() const {
    std::vector<double> out = latency_ms[0];
    out.insert(out.end(), latency_ms[1].begin(), latency_ms[1].end());
    return out;
  }
};

/// Runs op(i) back to back for `seconds` of wall time and at least `min_ops`
/// ops. Each op is timed on its own; after(i, out, traced) runs between ops,
/// outside the timed region, and is where outputs are checked.
template <class Op, class After>
Window run_serial_window(const Config& config, std::int64_t min_ops,
                         Tracer& tracer, Op&& op, After&& after) {
  Window w;
  const double window_ms = config.seconds * 1e3;
  const auto start = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    const double elapsed = ms_between(start, Clock::now());
    if (elapsed >= window_ms && i >= min_ops) break;
    const bool traced = traced_slice(config.trace, elapsed, window_ms);
    tracer.set_recording(traced);
    const auto t0 = Clock::now();
    auto out = op(i);
    const double ms = ms_between(t0, Clock::now());
    tracer.set_recording(false);
    w.latency_ms[traced].push_back(ms);
    w.busy_ms[traced] += ms;
    w.completions.push_back({ms_between(start, Clock::now()), ms});
    ++w.ops;
    after(i, std::move(out), traced);
  }
  return w;
}

/// Spans of one phase and name summed per op id, in op order.
std::vector<double> sum_by_op(const Tracer& tracer, const std::string& phase,
                              const std::string& name) {
  std::map<std::int64_t, double> by_op;
  for (const Span& s : tracer.spans()) {
    if (s.end_ns < 0 || phase != s.phase || name != s.name) continue;
    by_op[s.op] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  std::vector<double> out;
  for (const auto& [op, ms] : by_op) out.push_back(ms);
  return out;
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : median(values);
}

double mean_or_zero(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Per-layer results
// ---------------------------------------------------------------------------

/// Per-layer metric values of one traced run; names absent from the map are
/// layers the workload's ops never enter and print as 0.
using LayerValues = std::map<std::string, double>;

/// The gs/core/resilience decomposition, measured from outside by calling
/// each layer's public entry point on the workload's own instances:
/// core::run_binding per tree edge (uncached) and core::derive_families for
/// the assembly; then core::iterative_binding and solve_with_fallback in
/// separate passes of alternating order, so neither side warms the other's
/// caches. `with_ladder` is false for workloads whose ops bypass the ladder.
struct Decomposition {
  double gs_per_solve_ms = 0.0;
  double binding_ms = 0.0;
  bool consistent = true;  ///< ladder and direct binding agreed bitwise
};

Decomposition run_layer_passes(const std::vector<const KPartiteInstance*>& insts,
                               int reps, bool with_ladder, Tracer& tracer,
                               LayerValues& out) {
  Decomposition d;
  const auto tree = trees::path(kGenders);
  tracer.set_recording(true);

  tracer.set_phase("layers");
  std::int64_t exact_proposals = 0;
  std::int64_t all_proposals = 0;
  double nlnn_sum = 0.0;
  std::int64_t nlnn_edges = 0;
  std::int64_t op = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const KPartiteInstance* inst : insts) {
      std::vector<gs::GsResult> edges;
      for (const GenderEdge edge : tree.edges()) {
        SpanScope span(tracer, "gs.run_binding", op);
        edges.push_back(core::run_binding(*inst, edge, {}));
      }
      for (const auto& e : edges) {
        all_proposals += e.proposals;
        if (rep == 0) {
          const double n = inst->per_gender();
          exact_proposals += e.proposals;
          nlnn_sum += static_cast<double>(e.proposals) / (n * std::log(n));
          ++nlnn_edges;
        }
      }
      {
        SpanScope span(tracer, "core.derive_families", op);
        const auto report = core::derive_families(*inst, tree, edges);
        d.consistent = d.consistent && report.consistent;
      }
      ++op;
    }
  }
  const auto edge_ms = tracer.durations_ms("layers", "gs.run_binding");
  double edge_total_ms = 0.0;
  for (const double ms : edge_ms) edge_total_ms += ms;
  out["gs.edge_ms"] = median_or_zero(edge_ms);
  out["gs.ns_per_proposal"] =
      ratio(edge_total_ms * 1e6, static_cast<double>(all_proposals));
  out["gs.proposals_per_solve"] = ratio(static_cast<double>(exact_proposals),
                                        static_cast<double>(insts.size()));
  out["gs.proposals_per_nlnn"] =
      ratio(nlnn_sum, static_cast<double>(nlnn_edges));
  out["core.assemble_ms"] =
      median_or_zero(tracer.durations_ms("layers", "core.derive_families"));
  d.gs_per_solve_ms =
      median_or_zero(sum_by_op(tracer, "layers", "gs.run_binding"));

  std::vector<std::uint64_t> direct(insts.size());
  std::vector<std::uint64_t> laddered(insts.size());
  double attempts = 0.0;
  std::int64_t ladder_solves = 0;
  for (int round = 0; round < reps; ++round) {
    for (int side = 0; side < 2; ++side) {
      const bool ladder_side = (side == 0) == (round % 2 == 0);
      if (ladder_side && !with_ladder) continue;
      tracer.set_phase(ladder_side ? "ladder_pass" : "binding_pass");
      for (std::size_t i = 0; i < insts.size(); ++i) {
        if (ladder_side) {
          std::optional<resilience::FallbackReport> report;
          {
            SpanScope span(tracer, "resilience.solve_with_fallback", op);
            report = ladder_solve(*insts[i]);
          }
          attempts += static_cast<double>(report->attempts.size());
          ++ladder_solves;
          laddered[i] = report->succeeded ? fingerprint(*report->result) : 0;
        } else {
          std::optional<core::BindingResult> result;
          {
            SpanScope span(tracer, "core.iterative_binding", op);
            result = core::iterative_binding(*insts[i], tree, {});
          }
          direct[i] = fingerprint(*result);
        }
        ++op;
      }
    }
  }
  tracer.set_recording(false);
  d.binding_ms =
      median_or_zero(tracer.durations_ms("binding_pass",
                                         "core.iterative_binding"));
  out["core.binding_ms"] = d.binding_ms;
  if (with_ladder) {
    const double ladder_ms = median_or_zero(
        tracer.durations_ms("ladder_pass", "resilience.solve_with_fallback"));
    d.consistent = d.consistent && direct == laddered;
    out["resilience.ladder_ms"] = ladder_ms;
    out["resilience.attempts_per_solve"] =
        ratio(attempts, static_cast<double>(ladder_solves));
    out["resilience.ladder_overhead_ratio"] = ratio(ladder_ms, d.binding_ms);
  }
  return d;
}

void add_arena(const std::vector<const KPartiteInstance*>& insts,
               LayerValues& out) {
  double bytes = 0.0;
  for (const auto* inst : insts) bytes += static_cast<double>(inst->arena_bytes());
  out["prefs.arena_mib"] =
      ratio(bytes, static_cast<double>(insts.size())) / (1024.0 * 1024.0);
}

/// Tracing overhead within one traced run: traced slices against untraced
/// slices of the same window.
void add_overhead(double tput_untraced, double tput_traced, double p50_untraced,
                  double p50_traced, LayerValues& out) {
  out["trace.overhead_throughput"] =
      tput_untraced > 0.0 ? 1.0 - tput_traced / tput_untraced : 0.0;
  out["trace.overhead_p50"] =
      p50_untraced > 0.0 ? p50_traced / p50_untraced - 1.0 : 0.0;
}

/// Reported throughput and p50 of a window: the median over kStretches
/// equal stretches of it (ops assigned by completion time), so a stall of
/// the shared host that covers less than half the window moves neither.
struct StretchSummary {
  double throughput = 0.0;
  double p50_ms = 0.0;
  std::vector<double> throughputs;  ///< per stretch, for the run context
};

/// A serial window's stretch throughput is ops per second of op time (the
/// checks between ops excluded) and its stretches span the whole window,
/// min_ops overrun included. A closed loop's is replies per second of wall
/// time between the stretch's first and last reply, over the window proper;
/// the drain after it is left out.
StretchSummary summarize_stretches(const Window& w, double window_ms,
                                   bool serial) {
  double span_ms = window_ms;
  if (serial && !w.completions.empty()) {
    span_ms = std::max(span_ms, w.completions.back().at_ms);
  }
  const double stretch_ms = span_ms / kStretches;
  std::vector<std::vector<Completion>> stretches(kStretches);
  for (const Completion& c : w.completions) {
    if (!serial && c.at_ms >= span_ms) continue;
    const int k =
        std::min(kStretches - 1, static_cast<int>(c.at_ms / stretch_ms));
    stretches[static_cast<std::size_t>(k)].push_back(c);
  }
  StretchSummary out;
  std::vector<double> p50s;
  for (const auto& stretch : stretches) {
    if (stretch.size() < 2) continue;
    std::vector<double> latency;
    double busy_ms = 0.0;
    for (const Completion& c : stretch) {
      latency.push_back(c.op_ms);
      busy_ms += c.op_ms;
    }
    const auto count = static_cast<double>(stretch.size());
    out.throughputs.push_back(
        serial ? ratio(count, busy_ms / 1e3)
               : ratio(count - 1.0,
                       (stretch.back().at_ms - stretch.front().at_ms) / 1e3));
    p50s.push_back(median(latency));
  }
  out.throughput = median_or_zero(out.throughputs);
  out.p50_ms = median_or_zero(p50s);
  return out;
}

/// add_overhead for a serial window, whose slices are compared by op time.
void add_serial_overhead(const Window& w, LayerValues& out) {
  auto throughput = [&](int kind) {
    return ratio(static_cast<double>(w.latency_ms[kind].size()),
                 w.busy_ms[kind] / 1e3);
  };
  add_overhead(throughput(0), throughput(1), median_or_zero(w.latency_ms[0]),
               median_or_zero(w.latency_ms[1]), out);
}

/// Common tail of every run: metric lines, counts, context.
void finish(const Config& config, RunResult& result, const Window& window,
            bool serial, double setup_s, std::int64_t degraded,
            const LayerValues& layers, const Tracer& tracer) {
  const auto all = window.all_latencies();
  const LatencySummary lat = summarize(all);
  const StretchSummary stretches =
      summarize_stretches(window, config.seconds * 1e3, serial);
  if (!config.trace) {
    result.metric("throughput_ops_s", stretches.throughput, "1/s");
    result.metric("latency_ms_p50", stretches.p50_ms, "ms");
    result.metric("latency_ms_p99", lat.p99_ms, "ms");
    result.metric("setup_s", setup_s, "s");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    result.metric("ok_ratio",
                  1.0 - ratio(static_cast<double>(result.failed),
                              static_cast<double>(result.attempted)),
                  "ratio");
    result.metric("strict_ratio",
                  1.0 - ratio(static_cast<double>(degraded),
                              static_cast<double>(result.attempted)),
                  "ratio");
  } else {
    for (const auto& spec : per_layer_metrics()) {
      const auto it = layers.find(spec.name);
      result.metric(spec.name, it == layers.end() ? 0.0 : it->second,
                    spec.unit);
    }
  }
  if (result.failed > 0) result.correct = false;
  result.note("latency_samples", std::to_string(lat.samples));
  result.note("samples_beyond_p99", std::to_string(lat.beyond_p99));
  std::string per_stretch;
  for (const double t : stretches.throughputs) {
    per_stretch += (per_stretch.empty() ? "" : " ") + std::to_string(t);
  }
  result.note("stretch_throughput_ops_s", per_stretch);
  result.note("failed_ratio",
              std::to_string(ratio(static_cast<double>(result.failed),
                                   static_cast<double>(result.attempted))));
  result.note("degraded_ratio",
              std::to_string(ratio(static_cast<double>(degraded),
                                   static_cast<double>(result.attempted))));
  if (config.trace && !config.trace_out.empty()) {
    if (!tracer.write_jsonl(config.trace_out)) {
      throw std::runtime_error("cannot write spans to " + config.trace_out);
    }
    result.note("spans", std::to_string(tracer.spans().size()));
    result.note("trace_file", config.trace_out);
  }
}

// ---------------------------------------------------------------------------
// serve_rt
// ---------------------------------------------------------------------------

/// An in-process `kmatch serve` on 127.0.0.1: ServeEngine with two workers
/// behind a TcpServer whose accept loop runs on its own thread.
class LoopbackServer {
 public:
  LoopbackServer()
      : engine_(limits(), [](const serve::Frame&) {}),
        server_(engine_, 0),
        thread_([this] { server_.run(); }) {}
  ~LoopbackServer() {
    engine_.request_drain();
    thread_.join();
    engine_.drain();
  }
  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] const serve::ServeEngine& engine() const noexcept {
    return engine_;
  }

 private:
  static serve::ServeLimits limits() {
    serve::ServeLimits l;
    l.workers = 2;
    return l;
  }

  serve::ServeEngine engine_;
  serve::TcpServer server_;
  std::thread thread_;  // declared last: joined before server_ goes away
};

/// One blocking client connection speaking the frame protocol.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)), buf_(fd_), is_(&buf_) {
    if (fd_ < 0) throw std::runtime_error("client socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // A stalled server must end the run, not hang it: a read that waits
    // this long returns EOF and the outstanding requests count as lost.
    timeval timeout{};
    timeout.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("client connect failed");
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const serve::Frame& frame) {
    std::ostringstream os;
    serve::write_frame(os, frame);
    const std::string bytes = os.str();
    if (!serve::send_all(fd_, bytes.data(), bytes.size())) {
      throw std::runtime_error("client send failed");
    }
  }
  std::optional<serve::Frame> receive() { return serve::read_frame(is_); }

 private:
  int fd_;
  serve::FdReadBuf buf_;
  std::istream is_;
};

/// Calls fn(instance) for each serve_rt instance in seed order, one at a
/// time, so only the request texts stay resident.
template <class Fn>
void for_each_serve_instance(const Config& config, Fn&& fn) {
  const std::int32_t n = config.n > 0 ? config.n : 256;
  const std::int32_t count = config.instances > 0 ? config.instances : 64;
  Rng rng = input_stream(config.seed, 1);
  for (std::int32_t i = 0; i < count; ++i) fn(gen::uniform(kGenders, n, rng));
}

struct Reply {
  std::size_t body = 0;  ///< index of the request body it answers
  serve::FrameKind kind = serve::FrameKind::unknown;
  std::string text;
};

/// What the closed loop over one connection measured.
struct LoopResult {
  Window window;
  std::int64_t sent = 0;
  /// Replies by the slice kind of their arrival ([1] = traced slice).
  std::int64_t completions[2] = {0, 0};
  double elapsed_s = 0.0;  ///< window start to the last reply
  std::int64_t lost = 0;   ///< requests never answered, plus unexpected ids
  std::vector<Reply> replies;
};

/// Closed loop: kOutstanding SOLVEs in flight on one connection; each reply
/// releases the next request until the window closes, then the loop drains.
LoopResult closed_loop(const Config& config, Client& client,
                       const std::vector<std::string>& bodies,
                       Tracer& tracer) {
  struct Sent {
    std::size_t body = 0;
    Clock::time_point at;
    std::int32_t span = -1;
    bool traced = false;
    bool answered = false;
  };
  LoopResult out;
  std::vector<Sent> sent;
  const double window_ms = config.seconds * 1e3;
  tracer.set_phase("window");
  const auto start = Clock::now();
  auto last_reply = start;
  auto send_next = [&] {
    Sent s;
    const std::uint64_t id = sent.size() + 1;
    s.body = static_cast<std::size_t>(id - 1) % bodies.size();
    s.at = Clock::now();
    s.traced = traced_slice(config.trace, ms_between(start, s.at), window_ms);
    tracer.set_recording(s.traced);
    s.span = tracer.begin("serve.round_trip", static_cast<std::int64_t>(id));
    {
      SpanScope write(tracer, "serve.write_frame",
                      static_cast<std::int64_t>(id), s.span);
      client.send(serve::Frame::request(serve::FrameKind::solve, id,
                                        bodies[s.body]));
    }
    tracer.set_recording(false);
    sent.push_back(s);
  };
  std::int64_t outstanding = 0;
  for (std::size_t i = 0; i < kOutstanding; ++i, ++outstanding) send_next();
  while (outstanding > 0) {
    std::optional<serve::Frame> frame;
    try {
      frame = client.receive();
    } catch (const std::exception&) {
      break;  // a corrupt frame: the outstanding requests count as lost
    }
    if (!frame) break;
    const auto now = Clock::now();
    if (frame->id == 0 || frame->id > sent.size() ||
        sent[frame->id - 1].answered) {
      ++out.lost;
      continue;
    }
    Sent& s = sent[frame->id - 1];
    s.answered = true;
    --outstanding;
    tracer.end(s.span);
    out.window.latency_ms[s.traced].push_back(ms_between(s.at, now));
    out.window.completions.push_back(
        {ms_between(start, now), ms_between(s.at, now)});
    ++out.completions[traced_slice(config.trace, ms_between(start, now),
                                   window_ms)];
    last_reply = now;
    out.replies.push_back({s.body, frame->kind, std::move(frame->body)});
    if (ms_between(start, now) < window_ms) {
      send_next();
      ++outstanding;
    }
  }
  out.sent = static_cast<std::int64_t>(sent.size());
  out.lost += outstanding;
  out.elapsed_s = ms_between(start, last_reply) / 1e3;
  out.window.ops = static_cast<std::int64_t>(out.replies.size());
  return out;
}

/// serve_rt's traced replay, after the window: each body is sent to the
/// server alone and run through the server's inner layers in this process
/// (io::from_string, solve_with_fallback, io::to_string, each under its own
/// span, phase "replay"), the two in alternating order so neither always
/// finds the caches warm. Pairing them one request at a time puts both
/// under the same moment of a shared host; the median over the pairs of
/// the three layers' time / server time (serve.layer_coverage) says how
/// much of the server's time the named layers account for. Both matchings
/// are checked against the reference.
/// Pins every thread of this process to one CPU while it lives, then
/// restores the affinity the process started with. The replay runs the
/// server's worker and the in-process layers on the same core, because the
/// cores of a shared host slow down and recover independently.
class PinProcess {
 public:
  PinProcess() {
    sched_getaffinity(0, sizeof original_, &original_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<std::size_t>(std::max(sched_getcpu(), 0)), &one);
    apply(one);
  }
  ~PinProcess() { apply(original_); }
  PinProcess(const PinProcess&) = delete;
  PinProcess& operator=(const PinProcess&) = delete;

 private:
  static void apply(const cpu_set_t& set) {
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const auto tid = std::atoi(task.path().filename().c_str());
      sched_setaffinity(tid, sizeof set, &set);
    }
  }

  cpu_set_t original_{};
};

struct Replay {
  std::vector<KPartiteInstance> parsed;  ///< a few, for the layer passes
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_lookups = 0;
  double body_bytes = 0.0;
  std::vector<double> coverage;  ///< per pair: in-process ms / server ms
};

Replay replay_bodies(const std::vector<std::string>& bodies,
                     const std::vector<std::string>& refs, Client& client,
                     std::uint64_t first_id, const obs::Histogram& wall_hist,
                     Tracer& tracer) {
  constexpr std::size_t kKept = 8;
  constexpr std::size_t kEvictBytes = std::size_t{8} << 20;  // > L2
  std::vector<char> evict(kEvictBytes);
  Replay out;
  const PinProcess pinned;
  tracer.set_phase("replay");
  constexpr std::size_t kMinPairs = 64;
  const std::size_t replays = std::max(bodies.size(), kMinPairs);
  for (std::size_t r = 0; r < replays; ++r) {
    const std::size_t i = r % bodies.size();
    const auto op = static_cast<std::int64_t>(r);

    auto on_server = [&] {
      const std::int64_t wall_sum0 = wall_hist.sum();
      client.send(serve::Frame::request(serve::FrameKind::solve, first_id + r,
                                        bodies[i]));
      const auto reply = client.receive();
      ++out.attempted;
      if (!reply || reply->kind != serve::FrameKind::ok ||
          reply->body != refs[i]) {
        ++out.failed;
      }
      return static_cast<double>(wall_hist.sum() - wall_sum0) / 1e3;
    };
    auto in_process = [&] {
      // The server's worker reads a body the I/O thread wrote on another
      // core; push this body out of this core's caches so the replay reads
      // it from memory too, not warm from the send.
      std::fill(evict.begin(), evict.end(), static_cast<char>(r));
      tracer.set_recording(true);
      std::int32_t layer_spans[3] = {-1, -1, -1};
      std::optional<KPartiteInstance> inst;
      std::optional<resilience::FallbackReport> report;
      std::string text;
      {
        SpanScope root(tracer, "serve.replay", op);
        {
          SpanScope span(tracer, "prefs.from_string", op, root.index());
          layer_spans[0] = span.index();
          inst = io::from_string(bodies[i]);
        }
        {
          SpanScope span(tracer, "resilience.solve_with_fallback", op,
                         root.index());
          layer_spans[1] = span.index();
          report = ladder_solve(*inst);
        }
        {
          SpanScope span(tracer, "prefs.to_string", op, root.index());
          layer_spans[2] = span.index();
          text = io::to_string(report->matching());
        }
      }
      tracer.set_recording(false);
      double layers_ms = 0.0;
      for (const std::int32_t idx : layer_spans) {
        const Span& span = tracer.spans()[static_cast<std::size_t>(idx)];
        layers_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      }
      out.cache_hits += report->cache_hits;
      out.cache_lookups += report->cache_hits + report->cache_misses;
      out.body_bytes += static_cast<double>(bodies[i].size());
      ++out.attempted;
      if (text != refs[i]) ++out.failed;
      if (out.parsed.size() < kKept) out.parsed.push_back(std::move(*inst));
      return layers_ms;
    };
    double server_ms = 0.0;
    double local_ms = 0.0;
    if (r % 2 == 0) {
      server_ms = on_server();
      local_ms = in_process();
    } else {
      local_ms = in_process();
      server_ms = on_server();
    }
    out.coverage.push_back(ratio(local_ms, server_ms));
  }
  return out;
}

/// Median write_frame + read_frame time of one request body through an
/// in-memory stream (phase "codec"). Clears `ok` if a body does not survive
/// the round trip.
double frame_codec_ms(const std::vector<std::string>& bodies, Tracer& tracer,
                      bool& ok) {
  tracer.set_recording(true);
  tracer.set_phase("codec");
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < std::min<std::size_t>(8, bodies.size()); ++i) {
      const auto op = static_cast<std::int64_t>(i);
      const auto frame =
          serve::Frame::request(serve::FrameKind::solve, i + 1, bodies[i]);
      std::ostringstream os;
      {
        SpanScope span(tracer, "serve.write_frame", op);
        serve::write_frame(os, frame);
      }
      std::istringstream is(os.str());
      std::optional<serve::Frame> back;
      {
        SpanScope span(tracer, "serve.read_frame", op);
        back = serve::read_frame(is);
      }
      if (!back || back->body != bodies[i]) ok = false;
    }
  }
  tracer.set_recording(false);
  return median_or_zero(tracer.durations_ms("codec", "serve.write_frame")) +
         median_or_zero(tracer.durations_ms("codec", "serve.read_frame"));
}

RunResult run_serve_rt(const Config& config) {
  RunResult result;
  Tracer tracer(false);

  // Setup: the request bodies and a listening server with a connected
  // client. Each repetition rebuilds both; the last one is kept.
  std::vector<std::string> bodies;
  std::unique_ptr<Client> client;
  std::unique_ptr<LoopbackServer> server;
  const double setup_s = median_setup_s(config.setup_reps, [&] {
    client.reset();
    server.reset();
    bodies.clear();
    for_each_serve_instance(config, [&](const KPartiteInstance& inst) {
      bodies.push_back(io::to_string(inst));
    });
    server = std::make_unique<LoopbackServer>();
    client = std::make_unique<Client>(server->port());
  });

  // References: each body's matching as serve's ladder computes it, from an
  // independently generated copy of the instance (not from the body text).
  std::vector<std::string> refs;
  for_each_serve_instance(config, [&](const KPartiteInstance& inst) {
    const auto report = ladder_solve(inst);
    refs.push_back(report.succeeded && !report.degraded() &&
                           binding_is_valid(inst, *report.result)
                       ? io::to_string(report.matching())
                       : std::string("<no valid reference>"));
  });

  auto& wall_hist =
      obs::MetricsRegistry::global().histogram("serve.solve_wall_ms");
  const std::int64_t wall_sum0 = wall_hist.sum();
  const std::int64_t wall_count0 = wall_hist.count();
  const auto& stats = server->engine().stats();
  const std::int64_t received0 = stats.received.load();
  const std::int64_t shed0 = stats.shed.load();
  LoopResult loop = closed_loop(config, *client, bodies, tracer);
  // serve.solve_wall_ms is recorded in microseconds.
  const double server_ms =
      ratio(static_cast<double>(wall_hist.sum() - wall_sum0) / 1e3,
            static_cast<double>(wall_hist.count() - wall_count0));
  const std::int64_t received = stats.received.load() - received0;
  const std::int64_t shed = stats.shed.load() - shed0;

  // Checks, after the window: every reply OK and byte-equal to its body's
  // reference; anything lost, shed, errored or unexpected is a failure.
  if (config.sabotage && !loop.replies.empty() &&
      !loop.replies[0].text.empty()) {
    loop.replies[0].text[0] ^= 0x01;
  }
  std::int64_t degraded = 0;
  result.attempted = loop.sent;
  result.failed = loop.lost;
  for (const Reply& r : loop.replies) {
    if (r.kind == serve::FrameKind::degraded) ++degraded;
    const bool answered = r.kind == serve::FrameKind::ok ||
                          r.kind == serve::FrameKind::degraded;
    if (!answered || r.text != refs[r.body]) ++result.failed;
  }

  LayerValues layers;
  if (config.trace) {
    const Replay replay = replay_bodies(
        bodies, refs, *client, static_cast<std::uint64_t>(loop.sent) + 1,
        wall_hist, tracer);
    result.attempted += replay.attempted;
    result.failed += replay.failed;
    const auto parse_ms = tracer.durations_ms("replay", "prefs.from_string");
    const auto ladder_ms =
        tracer.durations_ms("replay", "resilience.solve_with_fallback");
    const auto ser_ms = tracer.durations_ms("replay", "prefs.to_string");
    const double parse = mean_or_zero(parse_ms);
    const double ladder = mean_or_zero(ladder_ms);
    const double ser = mean_or_zero(ser_ms);
    layers["prefs.parse_ms"] = median_or_zero(parse_ms);
    layers["prefs.parse_mb_s"] =
        ratio(replay.body_bytes / 1e6,
              parse * static_cast<double>(parse_ms.size()) / 1e3);
    layers["prefs.serialize_ms"] = median_or_zero(ser_ms);
    layers["core.cache_hit_ratio"] =
        ratio(static_cast<double>(replay.cache_hits),
              static_cast<double>(replay.cache_lookups));

    bool codec_ok = true;
    layers["serve.frame_codec_ms"] = frame_codec_ms(bodies, tracer, codec_ok);
    if (!codec_ok) result.correct = false;

    std::vector<const KPartiteInstance*> pass_insts;
    for (const auto& inst : replay.parsed) pass_insts.push_back(&inst);
    add_arena(pass_insts, layers);
    const Decomposition d =
        run_layer_passes(pass_insts, 8, /*with_ladder=*/true, tracer, layers);
    if (!d.consistent) result.correct = false;

    const double client_ms = mean_or_zero(loop.window.all_latencies());
    layers["serve.server_ms"] = server_ms;
    layers["serve.queue_wire_ms"] = client_ms - server_ms;
    layers["serve.shed_ratio"] =
        ratio(static_cast<double>(shed), static_cast<double>(received));
    layers["serve.layer_coverage"] = median_or_zero(replay.coverage);
    layers["prefs.share"] = ratio(parse + ser, client_ms);
    layers["resilience.share"] =
        ratio(std::max(ladder - d.binding_ms, 0.0), client_ms);
    layers["core.share"] =
        ratio(std::max(d.binding_ms - d.gs_per_solve_ms, 0.0), client_ms);
    layers["gs.share"] = ratio(d.gs_per_solve_ms, client_ms);
    layers["serve.share"] =
        ratio(std::max(client_ms - parse - ladder - ser, 0.0), client_ms);
    const double untraced_s = config.seconds / 2.0;  // slices 1 and 3
    add_overhead(
        ratio(static_cast<double>(loop.completions[0]), untraced_s),
        ratio(static_cast<double>(loop.completions[1]),
              loop.elapsed_s - untraced_s),
        median_or_zero(loop.window.latency_ms[0]),
        median_or_zero(loop.window.latency_ms[1]), layers);
    if (layers["serve.layer_coverage"] < 0.9) {
      result.note("coverage_check",
                  "parse + ladder + serialize cover " +
                      std::to_string(layers["serve.layer_coverage"]) +
                      " of serve.server_ms, less than 0.9");
      result.correct = false;
    }
  }

  client.reset();
  server.reset();
  finish(config, result, loop.window, /*serial=*/false, setup_s, degraded,
         layers, tracer);
  return result;
}

// ---------------------------------------------------------------------------
// solve_mem
// ---------------------------------------------------------------------------

/// Seconds of closed loop in the serve pass of a traced solve_mem run.
constexpr double kServePassSeconds = 4.0;

/// The prefs and serve layers, measured in a traced solve_mem run: a short
/// traced serve_rt run on its own seeded request bodies (16 of serve_rt's
/// n=256 instances). Its parse, serialize and serve metrics are kept; its
/// requests and checks count in this run's attempted and failed, and a
/// failed check (coverage included) fails this run.
void add_serve_pass(const Config& config, RunResult& result,
                    LayerValues& layers) {
  Config serve = config;
  serve.workload = "serve_rt";
  serve.seconds = kServePassSeconds;
  serve.n = 0;
  serve.instances = 16;
  serve.setup_reps = 1;
  if (!serve.trace_out.empty()) serve.trace_out += ".serve";
  const RunResult pass = run_serve_rt(serve);
  result.attempted += pass.attempted;
  result.failed += pass.failed;
  if (!pass.correct) result.correct = false;
  for (const auto& [key, value] : pass.context) {
    if (key == "coverage_check") result.note("serve_pass_" + key, value);
  }
  for (const char* name :
       {"prefs.parse_ms", "prefs.parse_mb_s", "prefs.serialize_ms",
        "serve.server_ms", "serve.queue_wire_ms", "serve.frame_codec_ms",
        "serve.shed_ratio", "serve.layer_coverage"}) {
    layers[name] = pass.find(name)->value;
  }
}

RunResult run_solve_mem(const Config& config) {
  RunResult result;
  Tracer tracer(false);
  const std::int32_t n = config.n > 0 ? config.n : 1024;
  const std::int32_t count = config.instances > 0 ? config.instances : 16;

  std::vector<KPartiteInstance> insts;
  const double setup_s = median_setup_s(config.setup_reps, [&] {
    insts.clear();
    Rng rng = input_stream(config.seed, 2);
    for (std::int32_t i = 0; i < count; ++i) {
      insts.push_back(gen::uniform(kGenders, n, rng));
    }
  });

  // References, checked once each: every op on an instance must reproduce
  // its reference bit for bit (the solve is deterministic).
  std::vector<std::uint64_t> ref_fp;
  std::vector<bool> ref_ok;
  for (const auto& inst : insts) {
    const auto report = ladder_solve(inst);
    const bool ok = report.succeeded && !report.degraded() &&
                    binding_is_valid(inst, *report.result);
    ref_ok.push_back(ok);
    ref_fp.push_back(ok ? fingerprint(*report.result) : 0);
  }

  std::int64_t failed = 0;
  std::int64_t degraded = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_lookups = 0;
  tracer.set_phase("window");
  const Window window = run_serial_window(
      config, 2 * count, tracer,
      [&](std::int64_t i) {
        const auto& inst = insts[static_cast<std::size_t>(i % count)];
        SpanScope root(tracer, "solve_mem.op", i);
        SpanScope span(tracer, "resilience.solve_with_fallback", i,
                       root.index());
        return ladder_solve(inst);
      },
      [&](std::int64_t i, resilience::FallbackReport report, bool traced) {
        const auto idx = static_cast<std::size_t>(i % count);
        if (!report.succeeded) {
          ++failed;
          return;
        }
        if (report.degraded()) ++degraded;
        const std::uint64_t fp = config.sabotage && i == 0
                                     ? corrupted_fingerprint(*report.result)
                                     : fingerprint(*report.result);
        if (!ref_ok[idx] || fp != ref_fp[idx]) ++failed;
        if (traced) {
          cache_hits += report.cache_hits;
          cache_lookups += report.cache_hits + report.cache_misses;
        }
      });
  result.attempted = window.ops;
  result.failed = failed;

  LayerValues layers;
  if (config.trace) {
    std::vector<const KPartiteInstance*> pass_insts;
    for (const auto& inst : insts) pass_insts.push_back(&inst);
    add_arena(pass_insts, layers);
    const Decomposition d =
        run_layer_passes(pass_insts, 8, /*with_ladder=*/true, tracer, layers);
    if (!d.consistent) result.correct = false;
    layers["core.cache_hit_ratio"] =
        ratio(static_cast<double>(cache_hits),
              static_cast<double>(cache_lookups));
    const double op_ms = mean_or_zero(window.latency_ms[1]);
    layers["gs.share"] = ratio(d.gs_per_solve_ms, op_ms);
    layers["core.share"] =
        ratio(std::max(d.binding_ms - d.gs_per_solve_ms, 0.0), op_ms);
    layers["resilience.share"] =
        ratio(std::max(op_ms - d.binding_ms, 0.0), op_ms);
    add_serial_overhead(window, layers);
    add_serve_pass(config, result, layers);
  }
  finish(config, result, window, /*serial=*/true, setup_s, degraded, layers,
         tracer);
  return result;
}

// ---------------------------------------------------------------------------
// churn_rematch
// ---------------------------------------------------------------------------

RunResult run_churn(const Config& config) {
  RunResult result;
  Tracer tracer(false);
  const std::int32_t n = config.n > 0 ? config.n : 1024;
  const std::size_t count = static_cast<std::size_t>(
      config.instances > 0 ? config.instances : 16);
  const auto tree = trees::path(kGenders);
  // Instance j and its mutation stream come from streams of their own, so
  // the check can replay each instance alone.
  auto make_instance = [&](std::size_t j) {
    Rng rng = input_stream(config.seed, 100 + j);
    return gen::uniform(kGenders, n, rng);
  };
  auto mutation_stream = [&](std::size_t j) {
    return input_stream(config.seed, 200 + j);
  };

  // A live instance with its carried edge cache, the solve its next rematch
  // warm-starts from, and its mutation stream. Step i mutates and
  // re-stabilizes instance i % count, so the tables the ops touch (36 MiB
  // each at n=1024) are cycled through memory as in solve_mem.
  struct Live {
    KPartiteInstance inst;
    core::GsEdgeCache cache;
    core::BindingResult previous;
    Rng rng;
    Live(KPartiteInstance instance, Rng stream)
        : inst(std::move(instance)), cache(inst), rng(stream) {}
  };
  std::vector<std::unique_ptr<Live>> lives;
  const double setup_s = median_setup_s(config.setup_reps, [&] {
    lives.clear();
    for (std::size_t j = 0; j < count; ++j) {
      auto live = std::make_unique<Live>(make_instance(j), mutation_stream(j));
      core::BindingOptions options;
      options.cache = &live->cache;
      live->previous = core::iterative_binding(live->inst, tree, options);
      lives.push_back(std::move(live));
    }
  });

  struct Step {
    std::size_t slots_invalidated = 0;
    std::int64_t edges_reused = 0;
    std::int64_t edges = 0;
    std::int64_t warm_proposals = 0;
    std::int64_t cache_hits = 0;
    std::int64_t cache_lookups = 0;
  };
  std::vector<std::uint64_t> step_fp;
  Step exact;  // summed over the first kExactSteps steps
  Step traced_sum;
  tracer.set_phase("window");
  const Window window = run_serial_window(
      config, kExactSteps, tracer,
      [&](std::int64_t i) {
        Live& live = *lives[static_cast<std::size_t>(i) % count];
        SpanScope root(tracer, "churn.op", i);
        std::optional<incremental::MutationDelta> delta;
        {
          SpanScope span(tracer, "incremental.random_mutation", i,
                         root.index());
          delta = incremental::random_mutation(live.inst, live.rng);
        }
        SpanScope span(tracer, "incremental.rematch", i, root.index());
        incremental::RematchOptions options;
        options.cache = &live.cache;
        auto report = incremental::rematch(live.inst, tree, live.previous,
                                           *delta, options);
        live.previous = std::move(report.result);
        const core::BindingResult& now = live.previous;
        // An untouched edge replays from the carried cache (a hit) before
        // the warm-start provider is asked, so both count as reused.
        return Step{report.slots_invalidated,
                    report.edges_reused + now.cache_hits,
                    static_cast<std::int64_t>(now.edge_results.size()),
                    report.warm_executed_proposals, now.cache_hits,
                    now.cache_hits + now.cache_misses};
      },
      [&](std::int64_t i, Step step, bool traced) {
        const auto& now = lives[static_cast<std::size_t>(i) % count]->previous;
        step_fp.push_back(config.sabotage && i == 0
                              ? corrupted_fingerprint(now)
                              : fingerprint(now));
        auto add = [&](Step& into) {
          into.slots_invalidated += step.slots_invalidated;
          into.edges_reused += step.edges_reused;
          into.edges += step.edges;
          into.warm_proposals += step.warm_proposals;
          into.cache_hits += step.cache_hits;
          into.cache_lookups += step.cache_lookups;
        };
        if (i < kExactSteps) add(exact);
        if (traced) add(traced_sum);
      });

  // Check, after the window: replay each instance's mutation stream on a
  // freshly generated copy and cold-solve every step; each step's rematch
  // must equal its cold iterative_binding bit for bit, and each replayed
  // instance must end equal to its live one. Instances are split over
  // parallel replay lanes.
  const std::size_t steps = step_fp.size();
  std::vector<std::uint64_t> cold_fp(steps, 0);
  std::vector<std::int64_t> cold_proposals(steps, 0);
  std::vector<char> final_state_equal(count, 0);
  const std::size_t lanes = std::clamp<std::size_t>(
      std::thread::hardware_concurrency() - 1, 1, 3);
  std::vector<std::exception_ptr> lane_error(lanes);
  {
    std::vector<std::jthread> workers;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      workers.emplace_back([&, lane] {
        try {
          for (std::size_t j = lane; j < count; j += lanes) {
            KPartiteInstance replay = make_instance(j);
            Rng replay_rng = mutation_stream(j);
            for (std::size_t i = j; i < steps; i += count) {
              incremental::random_mutation(replay, replay_rng);
              const auto cold = core::iterative_binding(replay, tree, {});
              cold_fp[i] = fingerprint(cold);
              cold_proposals[i] = cold.total_proposals;
            }
            final_state_equal[j] = replay == lives[j]->inst ? 1 : 0;
          }
        } catch (...) {
          lane_error[lane] = std::current_exception();
        }
      });
    }
  }
  for (const auto& error : lane_error) {
    if (error) std::rethrow_exception(error);
  }
  std::int64_t failed = 0;
  for (const char equal : final_state_equal) {
    if (!equal) ++failed;
  }
  std::int64_t exact_cold_proposals = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    if (cold_fp[i] != step_fp[i]) ++failed;
    if (static_cast<std::int64_t>(i) < kExactSteps) {
      exact_cold_proposals += cold_proposals[i];
    }
  }
  result.attempted = window.ops;
  result.failed = failed;

  LayerValues layers;
  if (config.trace) {
    // Cold solves of the live instances as the window left them, cycled
    // in the same order as the ops, so they meet the caches as a rematch
    // does. The layer passes run on the seed's first starting instance, not
    // a live one, whose state depends on how many steps the window fitted.
    tracer.set_phase("cold");
    tracer.set_recording(true);
    for (int rep = 0; rep < 4; ++rep) {
      for (std::size_t j = 0; j < count; ++j) {
        SpanScope span(tracer, "core.iterative_binding",
                       static_cast<std::int64_t>(j));
        const auto cold = core::iterative_binding(lives[j]->inst, tree, {});
        if (fingerprint(cold) != fingerprint(lives[j]->previous)) {
          ++result.failed;
        }
      }
    }
    tracer.set_recording(false);
    const KPartiteInstance initial = make_instance(0);
    add_arena({&initial}, layers);
    run_layer_passes({&initial}, 16, /*with_ladder=*/false, tracer, layers);
    const double mutate_ms = median_or_zero(
        tracer.durations_ms("window", "incremental.random_mutation"));
    const double rematch_ms =
        median_or_zero(tracer.durations_ms("window", "incremental.rematch"));
    const double cold_ms =
        median_or_zero(tracer.durations_ms("cold", "core.iterative_binding"));
    layers["incremental.mutate_us"] = mutate_ms * 1e3;
    layers["incremental.rematch_ms"] = rematch_ms;
    layers["incremental.cold_ms"] = cold_ms;
    layers["incremental.warm_speedup"] = ratio(cold_ms, rematch_ms);
    layers["incremental.warm_proposal_share"] =
        ratio(static_cast<double>(exact.warm_proposals),
              static_cast<double>(exact_cold_proposals));
    layers["incremental.edges_reused_ratio"] =
        ratio(static_cast<double>(exact.edges_reused),
              static_cast<double>(exact.edges));
    layers["incremental.slots_invalidated"] =
        ratio(static_cast<double>(exact.slots_invalidated),
              static_cast<double>(std::min(window.ops, kExactSteps)));
    layers["core.cache_hit_ratio"] =
        ratio(static_cast<double>(traced_sum.cache_hits),
              static_cast<double>(traced_sum.cache_lookups));
    const double op_ms = mean_or_zero(window.latency_ms[1]);
    const auto mutate_all =
        tracer.durations_ms("window", "incremental.random_mutation");
    const auto rematch_all =
        tracer.durations_ms("window", "incremental.rematch");
    layers["incremental.share"] =
        ratio(mean_or_zero(mutate_all) + mean_or_zero(rematch_all), op_ms);
    add_serial_overhead(window, layers);
  }
  finish(config, result, window, /*serial=*/true, setup_s, /*degraded=*/0,
         layers, tracer);
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"serve_rt", "solve_mem",
                                                 "churn_rematch"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"throughput_ops_s", "1/s"}, {"latency_ms_p50", "ms"},
      {"latency_ms_p99", "ms"},    {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},     {"ok_ratio", "ratio"},
      {"strict_ratio", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"prefs.parse_ms", "ms"},
      {"prefs.parse_mb_s", "MB/s"},
      {"prefs.serialize_ms", "ms"},
      {"prefs.arena_mib", "MiB"},
      {"prefs.share", "ratio"},
      {"gs.edge_ms", "ms"},
      {"gs.ns_per_proposal", "ns"},
      {"gs.proposals_per_solve", "count"},
      {"gs.proposals_per_nlnn", "ratio"},
      {"gs.share", "ratio"},
      {"core.binding_ms", "ms"},
      {"core.assemble_ms", "ms"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.share", "ratio"},
      {"resilience.ladder_ms", "ms"},
      {"resilience.attempts_per_solve", "count"},
      {"resilience.ladder_overhead_ratio", "ratio"},
      {"resilience.share", "ratio"},
      {"serve.server_ms", "ms"},
      {"serve.queue_wire_ms", "ms"},
      {"serve.frame_codec_ms", "ms"},
      {"serve.shed_ratio", "ratio"},
      {"serve.layer_coverage", "ratio"},
      {"serve.share", "ratio"},
      {"incremental.mutate_us", "us"},
      {"incremental.rematch_ms", "ms"},
      {"incremental.cold_ms", "ms"},
      {"incremental.warm_speedup", "ratio"},
      {"incremental.warm_proposal_share", "ratio"},
      {"incremental.edges_reused_ratio", "ratio"},
      {"incremental.slots_invalidated", "count"},
      {"incremental.share", "ratio"},
      {"trace.overhead_throughput", "ratio"},
      {"trace.overhead_p50", "ratio"},
  };
  return specs;
}

RunResult run_workload(const Config& config) {
  RunResult result;
  if (config.workload == "serve_rt") {
    result = run_serve_rt(config);
  } else if (config.workload == "solve_mem") {
    result = run_solve_mem(config);
  } else if (config.workload == "churn_rematch") {
    result = run_churn(config);
  } else {
    throw std::invalid_argument("unknown workload: " + config.workload);
  }
  result.context.insert(
      result.context.begin(),
      {{"workload", config.workload},
       {"seed", std::to_string(config.seed)},
       {"seconds", std::to_string(config.seconds)},
       {"trace", config.trace ? "1" : "0"},
       {"nproc", std::to_string(online_cpus())},
       {"cpu_model", cpu_model()},
       {"build_type", PERFBENCH_BUILD_TYPE}});
  return result;
}

}  // namespace perfbench

#include "stages.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "hopset/serialize.hpp"
#include "serve/server.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/dijkstra.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using graph::Vertex;
using graph::Weight;

/// Value of `key=` in a space-separated reply line ("" when absent).
std::string field_of(const std::string& resp, const std::string& key) {
  const std::string needle = " " + key + "=";
  const auto pos = resp.find(needle);
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  return resp.substr(start, resp.find(' ', start) - start);
}

/// Replies print shortest round-trip doubles, so strtod recovers the exact
/// bits and equality below is bit identity.
bool same_bits(Weight a, Weight b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

query::QueryEngine daemon_engine(const graph::Graph& g, const hopset::Hopset& h,
                                 int hops) {
  query::QueryEngine e(g, h.edges, h.schedule.beta);
  e.set_kernel(parhop::sssp::Kernel::kAuto);
  e.set_hop_budget(hops);
  return e;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& xs) {
  return parhop::util::summarize(xs).p50;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

graph::Graph generate(Env& env, Family f, Vertex n, double* wall_s) {
  Span span(env.tracer, "graph.generate");
  const auto t0 = Clock::now();
  graph::Graph g = f == Family::kRoad
                       ? parhop::workloads::road_like_grid(n, env.seed)
                       : parhop::workloads::geometric_cloud(n, env.seed);
  *wall_s = seconds_since(t0);
  return g;
}

hopset::Hopset build(Env& env, pram::ThreadPool* pool, const graph::Graph& g,
                     double* wall_s) {
  Span span(env.tracer, "hopset.build_hopset");
  const auto t0 = Clock::now();
  pram::UnmeteredCtx cx(pool);
  hopset::Hopset h = hopset::build_hopset(cx, g, hopset::Params{});
  *wall_s = seconds_since(t0);
  return h;
}

std::size_t save(Env& env, const hopset::Hopset& h,
                 const std::filesystem::path& path, double* wall_s) {
  {
    Span span(env.tracer, "serialize.write_hopset_file");
    const auto t0 = Clock::now();
    hopset::write_hopset_file(path.string(), h);
    *wall_s = seconds_since(t0);
  }
  return static_cast<std::size_t>(std::filesystem::file_size(path));
}

hopset::Hopset load(Env& env, const std::filesystem::path& path,
                    double* wall_s) {
  Span span(env.tracer, "serialize.read_hopset_file");
  const auto t0 = Clock::now();
  hopset::Hopset h = hopset::read_hopset_file(path.string());
  *wall_s = seconds_since(t0);
  return h;
}

query::QueryEngine prep_engine(Env& env, const graph::Graph& g,
                               const hopset::Hopset& h, double* wall_s) {
  Span span(env.tracer, "query.engine_prep");
  const auto t0 = Clock::now();
  query::QueryEngine e(g, h.edges, h.schedule.beta);
  e.set_kernel(parhop::sssp::Kernel::kAuto);
  *wall_s = seconds_since(t0);
  return e;
}

std::vector<double> replay(Env& env, const query::QueryEngine& e,
                           const std::vector<query::PointQuery>& qs,
                           std::size_t passes) {
  pram::ThreadPool one(1);
  pram::UnmeteredCtx cx(&one);
  query::QueryWorkspace ws;
  std::vector<double> lat;
  lat.reserve(passes * qs.size());
  for (std::size_t p = 0; p < passes; ++p)
    for (const query::PointQuery& q : qs) {
      const auto t0 = Clock::now();
      {
        Span span(env.tracer, "query.point_to_point", lat.size() + 1);
        e.point_to_point(cx, ws, q.source, q.target);
      }
      lat.push_back(seconds_since(t0));
    }
  return lat;
}

int probe_budget(Env& env, const query::QueryEngine& e, double* wall_s) {
  Span span(env.tracer, "query.probe_hop_budget");
  const auto t0 = Clock::now();
  const int hops = e.probe_hop_budget<pram::Unmetered>(env.pool);
  *wall_s = seconds_since(t0);
  return hops;
}

std::vector<query::PointQuery> seeded_queries(std::size_t k, Vertex n,
                                              std::uint64_t seed) {
  parhop::util::Xoshiro256 rng(seed);
  std::vector<query::PointQuery> qs;
  qs.reserve(k);
  while (qs.size() < k) {
    const auto s = static_cast<Vertex>(rng.next_below(n));
    const auto t = static_cast<Vertex>(rng.next_below(n));
    if (s != t) qs.push_back({s, t});
  }
  return qs;
}

DeltaChain make_chain(Env& env, graph::Graph g, hopset::Hopset h,
                      std::size_t k, const std::string& stem) {
  Span span(env.tracer, "bench.make_chain");
  DeltaChain chain;
  const std::vector<graph::Edge> edges = g.edge_list();
  std::vector<Weight> w(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) w[i] = edges[i].w;
  const auto [wmin, wmax] = g.weight_range();
  parhop::util::Xoshiro256 rng(env.seed * 0x9E3779B97F4A7C15ULL + 0xD17A);
  pram::ThreadPool patch_pool(1);
  pram::UnmeteredCtx cx(&patch_pool);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t e = rng.next_below(edges.size());
    const double f = 0.75 + 0.5 * rng.next_double();
    w[e] = std::clamp(w[e] * f, wmin, wmax);
    std::vector<hopset::UpdateOp> ops = {
        {hopset::UpdateOp::Kind::kWeight, edges[e].u, edges[e].v, w[e]}};
    const std::filesystem::path path =
        env.dir / (stem + "-" + std::to_string(i) + ".phsd");
    hopset::write_delta_file(path.string(), hopset::make_delta(g, h, ops));
    try {
      Span patch(env.tracer, "dynamic.apply_updates");
      const auto t0 = Clock::now();
      const hopset::PatchStats st = hopset::apply_updates(cx, g, h, ops);
      chain.patch_s.push_back(seconds_since(t0));
      chain.suspects_removed += st.suspects_removed;
      chain.dirty_clusters += st.dirty_clusters;
      chain.edges_added += st.edges_added;
    } catch (const std::exception&) {
      ++chain.failures;  // the daemon would refuse it too; stop the chain
      break;
    }
    chain.paths.push_back(path);
    chain.ops.push_back(std::move(ops));
  }
  return chain;
}

BatchPhase run_batches(Env& env, const query::QueryEngine& e,
                       const std::vector<query::PointQuery>& distinct,
                       std::size_t batch, double seconds,
                       std::size_t min_batches) {
  BatchPhase out;
  out.answer.assign(distinct.size(), graph::kInfWeight);
  std::vector<bool> seen(distinct.size(), false);
  std::vector<query::QueryWorkspace> slots;
  std::vector<query::PointQuery> qs(batch);
  std::vector<std::size_t> ids(batch);
  double ff_sum = 0;
  std::size_t next = 0;
  // Every distinct query is served at least once, so every one is checked.
  min_batches = std::max(min_batches, (distinct.size() + batch - 1) / batch);
  const auto t0 = Clock::now();
  while (out.batches < min_batches || seconds_since(t0) < seconds) {
    for (std::size_t i = 0; i < batch; ++i) {
      ids[i] = next;
      qs[i] = distinct[next];
      next = (next + 1) % distinct.size();
    }
    const auto tb = Clock::now();
    query::BatchResult r;
    {
      Span span(env.tracer, "query.run_batch", out.batches + 1);
      r = e.run_batch<pram::Unmetered>(env.pool, qs, slots);
    }
    out.wall_s += seconds_since(tb);
    ++out.batches;
    out.max_rounds = std::max(out.max_rounds, r.max_rounds_run);
    ff_sum += r.mean_frontier_fraction;
    for (std::size_t i = 0; i < batch; ++i) {
      out.latency_s.push_back(r.latency_s[i]);
      out.busy_s += r.latency_s[i];
      if (!seen[ids[i]]) {
        seen[ids[i]] = true;
        out.answer[ids[i]] = r.answers[i];
      } else if (!same_bits(out.answer[ids[i]], r.answers[i])) {
        ++out.mismatches;
      }
    }
  }
  out.served = out.latency_s.size();
  out.frontier_frac = ff_sum / static_cast<double>(out.batches);
  return out;
}

ServePhase run_serve(
    Env& env, const graph::Graph& g, const hopset::Hopset& h,
    const DeltaChain& chain,
    const std::vector<std::vector<query::PointQuery>>& reader_queries,
    int hops, double cadence_s, double seconds) {
  namespace serve = parhop::serve;
  serve::ServerOptions opt;
  opt.workers = env.pool->size();
  opt.queue_depth = 4 * (reader_queries.size() + 1);
  opt.hops = hops;
  std::unique_ptr<serve::Server> server;
  {
    Span span(env.tracer, "serve.server_boot");
    server = std::make_unique<serve::Server>(g, h, opt);
  }
  // Reader spans open on their own threads; they name this span as parent.
  Span phase(env.tracer, "bench.serve_phase");
  const std::uint64_t phase_span = phase.id();

  // Per-reader cap on recorded reads (~1M: 60 s at 16k q/s per reader).
  constexpr std::size_t kMaxReads = std::size_t{1} << 20;
  const std::size_t nreaders = reader_queries.size();
  const std::size_t epochs = chain.paths.size() + 1;
  std::vector<ServePhase> per(nreaders + 1);  // readers, then the writer
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> request_ids{1};
  const auto t0 = Clock::now();

  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < nreaders; ++r) {
    threads.emplace_back([&, r] {
      ServePhase& mine = per[r];
      const auto& qs = reader_queries[r];
      ServeAnswers table;
      table.queries = qs.size();
      table.dist.assign(epochs * qs.size(), 0);
      table.seen.assign(epochs * qs.size(), 0);
      std::vector<std::string> lines;
      for (const query::PointQuery& q : qs)
        lines.push_back("P2P " + std::to_string(q.source) + " " +
                        std::to_string(q.target));
      mine.read_latency_s.reserve(kMaxReads);
      // Nothing may escape a thread's entry function: a throw is a failed
      // read, and the reader stops.
      try {
        for (std::size_t i = 0; !stop.load(std::memory_order_relaxed) &&
                                mine.reads < kMaxReads;
             i = (i + 1) % qs.size()) {
          const auto tq = Clock::now();
          std::string resp;
          {
            Span span(env.tracer, "serve.handle_line",
                      request_ids.fetch_add(1), phase_span);
            resp = server->handle_line(lines[i]);
          }
          mine.read_latency_s.push_back(
              std::chrono::duration<float>(Clock::now() - tq).count());
          ++mine.reads;
          if (resp.rfind("BUSY", 0) == 0) {
            ++mine.busy;
            continue;
          }
          const std::string dist = field_of(resp, "dist");
          const std::size_t epoch =
              std::strtoull(field_of(resp, "epoch").c_str(), nullptr, 10);
          if (resp.rfind("OK P2P", 0) != 0 || dist.empty() ||
              epoch >= epochs) {
            ++mine.errors;
            continue;
          }
          const Weight d = std::strtod(dist.c_str(), nullptr);
          const std::size_t slot = epoch * qs.size() + i;
          if (!table.seen[slot]) {
            table.seen[slot] = 1;
            table.dist[slot] = d;
          } else if (!same_bits(table.dist[slot], d)) {
            ++mine.repeats_differ;
          }
        }
      } catch (const std::exception&) {
        ++mine.errors;
      }
      mine.answers.push_back(std::move(table));
    });
  }
  {
    ServePhase& mine = per[nreaders];
    for (std::size_t i = 0; i < chain.paths.size(); ++i) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(cadence_s * double(i + 1)));
      if (due > t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds)))
        break;
      std::this_thread::sleep_until(due);
      const auto ts = Clock::now();
      mine.writer_lag_s.push_back(
          std::chrono::duration<double>(ts - due).count());
      std::string resp;
      {
        Span span(env.tracer, "serve.reload", request_ids.fetch_add(1),
                  phase_span);
        resp = server->handle_line("RELOAD " + chain.paths[i].string());
      }
      mine.reload_latency_s.push_back(seconds_since(ts));
      if (resp.rfind("OK RELOAD", 0) != 0 ||
          field_of(resp, "epoch") != std::to_string(i + 1)) {
        ++mine.reload_failures;
        break;  // the rest of the chain is cut against the refused base
      }
      mine.reload_prep_s.push_back(
          std::strtod(field_of(resp, "build_s").c_str(), nullptr));
    }
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds)));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();

  ServePhase out;
  out.wall_s = seconds_since(t0);
  for (ServePhase& p : per) {
    auto append = [](auto& to, auto& from) {
      to.insert(to.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
    };
    append(out.read_latency_s, p.read_latency_s);
    append(out.answers, p.answers);
    append(out.reload_latency_s, p.reload_latency_s);
    append(out.reload_prep_s, p.reload_prep_s);
    append(out.writer_lag_s, p.writer_lag_s);
    out.reads += p.reads;
    out.busy += p.busy;
    out.errors += p.errors;
    out.repeats_differ += p.repeats_differ;
    out.reload_failures += p.reload_failures;
  }
  return out;
}

AnswerCheck check_answers(Env& env, const graph::Graph& g,
                          const hopset::Hopset& h, int hop_budget,
                          const std::vector<query::PointQuery>& distinct,
                          const std::vector<Weight>& answer, double eps) {
  Span span(env.tracer, "bench.check_answers");
  const query::QueryEngine ref = daemon_engine(g, h, hop_budget);
  std::atomic<std::size_t> not_identical{0}, over_stretch{0};
  // One item per chunk; each runs on a one-thread pool of its own.
  env.pool->run_chunks(distinct.size(), 1, [&](std::size_t i, std::size_t) {
    pram::ThreadPool one(1);
    pram::UnmeteredCtx cx(&one);
    query::QueryWorkspace ws;
    const query::PointQuery q = distinct[i];
    const Weight want = ref.point_to_point(cx, ws, q.source, q.target);
    const Weight exact =
        parhop::sssp::dijkstra_distances(g, q.source)[q.target];
    const Weight got = answer[i];
    if (!same_bits(got, want)) not_identical.fetch_add(1);
    // Summation order through hopset edges may land an ulp below Dijkstra.
    if (!(got >= exact * (1 - 1e-12) &&
          got <= (1 + eps) * exact * (1 + 1e-12)))
      over_stretch.fetch_add(1);
  });
  return {not_identical.load(), over_stretch.load()};
}

std::size_t check_serve(
    Env& env, graph::Graph g, hopset::Hopset h, const DeltaChain& chain,
    const ServePhase& phase,
    const std::vector<std::vector<query::PointQuery>>& reader_queries,
    int hops) {
  Span span(env.tracer, "bench.check_serve");
  std::atomic<std::size_t> failures{0};
  pram::ThreadPool one(1);
  pram::UnmeteredCtx patch_cx(&one);
  for (std::size_t epoch = 0; epoch <= chain.ops.size(); ++epoch) {
    if (epoch > 0) hopset::apply_updates(patch_cx, g, h, chain.ops[epoch - 1]);
    // The (reader, query) pairs answered in this epoch.
    std::vector<std::pair<std::size_t, std::size_t>> todo;
    for (std::size_t r = 0; r < phase.answers.size(); ++r) {
      const ServeAnswers& a = phase.answers[r];
      for (std::size_t q = 0; q < a.queries; ++q)
        if (a.seen[epoch * a.queries + q]) todo.emplace_back(r, q);
    }
    if (todo.empty()) continue;
    const query::QueryEngine ref = daemon_engine(g, h, hops);
    env.pool->run_chunks(todo.size(), 1, [&](std::size_t k, std::size_t) {
      pram::ThreadPool seq(1);
      pram::UnmeteredCtx cx(&seq);
      query::QueryWorkspace ws;
      const auto [r, qid] = todo[k];
      const query::PointQuery q = reader_queries[r][qid];
      const ServeAnswers& a = phase.answers[r];
      if (!same_bits(ref.point_to_point(cx, ws, q.source, q.target),
                     a.dist[epoch * a.queries + qid]))
        failures.fetch_add(1);
    });
  }
  return failures.load();
}

Quality probe_quality(Env& env, const graph::Graph& g,
                      const query::QueryEngine& e, double eps,
                      std::size_t sources) {
  Span span(env.tracer, "bench.probe_quality");
  Quality out;
  pram::UnmeteredCtx cx(env.pool);
  for (std::size_t k = 0; k < sources; ++k) {
    // Evenly spread ids: on the road grids these include both far corners,
    // so the worst case does not hinge on which sources a seed draws.
    const auto s = static_cast<Vertex>(
        (g.num_vertices() - 1) * k / std::max<std::size_t>(1, sources - 1));
    const std::vector<Weight> exact = parhop::sssp::dijkstra_distances(g, s);
    int needed = -1;
    auto on_round = [&](int hops, std::span<const Weight> d) {
      if (needed >= 0) return;
      for (std::size_t v = 0; v < exact.size(); ++v) {
        if (exact[v] == graph::kInfWeight || exact[v] == 0) continue;
        if (!(d[v] <= (1 + eps) * exact[v] * (1 + 1e-12))) return;
      }
      needed = hops;
    };
    const Vertex src[1] = {s};
    parhop::sssp::bellman_ford(cx, e.merged(), src, e.beta(), on_round);
    ++out.sources;
    if (needed < 0) {
      ++out.failures;
    } else {
      out.hops_needed = std::max(out.hops_needed, needed);
    }
  }
  return out;
}

HopsetShape hopset_shape(const graph::Graph& g, const hopset::Hopset& h) {
  HopsetShape s;
  s.edges = h.edges.size();
  s.scales = h.scales.size();
  for (const hopset::ScaleStats& sc : h.scales)
    for (const hopset::PhaseStats& p : sc.phases) {
      s.clusters_in += p.clusters_in;
      s.detect_steps += static_cast<std::size_t>(p.detect_steps);
      s.bfs_pulses += static_cast<std::size_t>(p.bfs_pulses);
    }
  std::map<std::pair<Vertex, Vertex>, std::set<int>> scales_of;
  std::set<std::pair<Vertex, Vertex>> useful;
  for (const hopset::HopsetEdge& e : h.detailed) {
    const auto key = std::minmax(e.u, e.v);
    scales_of[key].insert(e.scale);
    if (g.edge_weight(e.u, e.v) <= e.w)
      ++s.dominated_edges;
    else
      useful.insert(key);
  }
  for (const auto& [key, scales] : scales_of)
    if (scales.size() > 1) ++s.duplicate_pairs;
  s.useful_frac = s.edges ? static_cast<double>(useful.size()) /
                                static_cast<double>(s.edges)
                          : 0;
  return s;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "hopset/serialize.hpp"
#include "stages.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

/// How a workload sizes its graph and splits its measured time.
struct Spec {
  std::string name;
  Family family = Family::kRoad;
  graph::Vertex n = 0;
  graph::Vertex smoke_n = 0;
  /// Builds are the measured phase (build-road); otherwise each setup
  /// repetition builds, saves and reloads the index.
  bool build_measured = false;
  std::size_t setup_reps = 1;
  std::size_t min_builds = 1;
  // Shares of --seconds given to the build, batch and daemon phases.
  double build_share = 0;
  double batch_share = 0;
  double serve_share = 0;
  std::size_t distinct_queries = 0;
  std::size_t batch = 0;
  std::size_t min_batches = 1;
  /// Cap on the serve-stream queries replayed single-threaded (trace run).
  std::size_t replay_queries = 0;
  /// RELOADs of the daemon phase (fewer when the phase ends first).
  std::size_t max_reloads = 0;
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> s = [] {
    Spec build_road;
    build_road.name = "build-road";
    build_road.family = Family::kRoad;
    build_road.n = 29929;  // 173², the smallest grid above β̂'s 28561 cap
    build_road.smoke_n = 900;
    build_road.build_measured = true;
    build_road.setup_reps = 25;
    build_road.min_builds = 4;
    build_road.build_share = 0.7;
    build_road.batch_share = 0.15;
    build_road.serve_share = 0.05;
    build_road.distinct_queries = 64;
    build_road.batch = 8;
    build_road.min_batches = 2;
    build_road.replay_queries = 8;
    build_road.max_reloads = 12;

    Spec query_geo;
    query_geo.name = "query-geo";
    query_geo.family = Family::kGeo;
    query_geo.n = 20000;
    query_geo.smoke_n = 2000;
    query_geo.setup_reps = 3;
    query_geo.batch_share = 0.8;
    query_geo.serve_share = 0.05;
    query_geo.distinct_queries = 256;
    query_geo.batch = 16;
    query_geo.min_batches = 4;
    query_geo.replay_queries = 32;
    query_geo.max_reloads = 16;

    return std::vector<Spec>{build_road, query_geo};
  }();
  return s;
}

const Spec& spec_of(const std::string& name) {
  for (const Spec& s : specs())
    if (s.name == name) return s;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

constexpr double kCadenceS = 0.05;  ///< writer RELOAD schedule
constexpr std::size_t kReaders = 1;  ///< P2P connections beside the writer
constexpr std::size_t kReaderQueries = 128;  ///< distinct P2P lines per reader
constexpr std::size_t kProbeSources = 4;    ///< hops_needed probe sources

double sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& s : specs()) v.push_back(s.name);
    return v;
  }();
  return names;
}

Outcome run_workload(const Options& opt, Tracer* tracer) {
  const Spec& spec = spec_of(opt.workload);
  const bool traced = tracer != nullptr;
  const double eps = hopset::Params{}.epsilon;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Outcome out;
  auto fail = [&](std::size_t count, const std::string& what) {
    if (count == 0) return;
    out.failed += count;
    out.failures.push_back(what + " (" + std::to_string(count) + ")");
  };

  Env env;
  env.tracer = tracer;
  env.dir = opt.workdir;
  env.seed = opt.seed;
  std::optional<Span> root;
  root.emplace(tracer, "bench.pipeline");
  const std::uint64_t root_id = root->id();
  std::unique_ptr<pram::ThreadPool> pool;
  {
    Span span(tracer, "pram.pool_create");
    pool = std::make_unique<pram::ThreadPool>(nproc);
  }
  env.pool = pool.get();

  // ---------------------------------------------------------------- setup --
  const graph::Vertex n = opt.smoke ? spec.smoke_n : spec.n;
  const std::size_t reps =
      traced && !spec.build_measured ? 1 : (opt.smoke ? 2 : spec.setup_reps);
  const std::filesystem::path phs = opt.workdir / "index.phs";
  std::vector<double> setup_s, gen_s, build_s, write_s, read_s, prep_s;
  graph::Graph g;
  hopset::Hopset built;  // last build, with its per-scale stats
  hopset::Hopset h;      // the reloaded index everything serves from
  std::optional<query::QueryEngine> engine;
  int hops = 1;
  std::size_t index_bytes = 0, builds = 0, byte_mismatches = 0, loads = 0,
              identity_failures = 0;
  std::string first_bytes;
  double w = 0;

  auto build_and_save = [&] {
    built = build(env, env.pool, g, &w);
    build_s.push_back(w);
    index_bytes = save(env, built, phs, &w);
    write_s.push_back(w);
    std::string bytes = read_file(phs);
    if (builds++ == 0)
      first_bytes = std::move(bytes);
    else if (bytes != first_bytes)
      ++byte_mismatches;
  };
  auto load_and_prep = [&] {
    h = load(env, phs, &w);
    read_s.push_back(w);
    ++loads;
    try {
      hopset::check_graph_identity(h, g, phs.string());
    } catch (const std::exception&) {
      ++identity_failures;
    }
    engine.emplace(prep_engine(env, g, h, &w));
    prep_s.push_back(w);
    hops = probe_budget(env, *engine, &w);
    engine->set_hop_budget(hops);
  };

  for (std::size_t rep = 0; rep < reps; ++rep) {
    Span span(tracer, "bench.setup");
    const auto t0 = Clock::now();
    g = generate(env, spec.family, n, &w);
    gen_s.push_back(w);
    if (!spec.build_measured) {
      build_and_save();
      load_and_prep();
    }
    setup_s.push_back(seconds_since(t0));
  }

  // -------------------------------------------------------- measured phases --
  if (spec.build_measured) {
    Span span(tracer, "bench.build_phase");
    const auto t0 = Clock::now();
    const std::size_t min_builds = opt.smoke ? 2 : spec.min_builds;
    while (builds < min_builds ||
           seconds_since(t0) < spec.build_share * opt.seconds)
      build_and_save();
    load_and_prep();
  }

  const std::vector<query::PointQuery> distinct = seeded_queries(
      spec.distinct_queries, g.num_vertices(), opt.seed * 1000003 + 17);
  BatchPhase bp;
  {
    Span span(tracer, "bench.batch_phase");
    bp = run_batches(env, *engine, distinct, spec.batch,
                     spec.batch_share * opt.seconds, spec.min_batches);
  }

  std::vector<std::vector<query::PointQuery>> reader_queries;
  for (std::size_t r = 0; r < kReaders; ++r)
    reader_queries.push_back(seeded_queries(
        kReaderQueries, g.num_vertices(), opt.seed * 7919 + 101 * (r + 1)));
  const double serve_seconds = spec.serve_share * opt.seconds;
  const std::size_t chain_len = std::min(
      spec.max_reloads,
      static_cast<std::size_t>(std::ceil(serve_seconds / kCadenceS)) + 1);
  const DeltaChain chain = make_chain(env, g, h, chain_len, "delta");
  const ServePhase sp = run_serve(env, g, h, chain, reader_queries, hops,
                                  kCadenceS, serve_seconds);
  const double rss_mb = peak_rss_mb();
  root.reset();

  // ---------------------------------------------------------------- gates --
  out.attempted += builds + loads;
  fail(byte_mismatches, ".phs bytes differ between repeated builds");
  fail(identity_failures, "reloaded .phs fails the graph-identity check");
  out.attempted += bp.served;
  fail(bp.mismatches, "batch answer changed between repeats");
  const AnswerCheck ac =
      check_answers(env, g, h, hops, distinct, bp.answer, eps);
  fail(ac.not_identical, "batch answer differs from the 1-thread reference");
  fail(ac.over_stretch, "batch answer misses 1+eps against Dijkstra");
  out.attempted += chain.paths.size() + chain.failures;
  fail(chain.failures, "apply_updates refused a delta");
  out.attempted += sp.reads + sp.reload_latency_s.size();
  fail(sp.busy, "daemon answered BUSY");
  fail(sp.errors, "daemon answered ERR or an unparseable line");
  fail(sp.repeats_differ, "P2P answer changed within one epoch");
  fail(sp.reload_failures, "RELOAD not answered OK");
  fail(check_serve(env, g, h, chain, sp, reader_queries, hops),
       "P2P answer differs from its epoch's reference engine");
  const Quality q = probe_quality(env, g, *engine, eps, kProbeSources);
  out.attempted += q.sources;
  fail(q.failures, "probe source never within 1+eps");
  if (sp.reload_latency_s.empty() || sp.read_latency_s.empty()) {
    ++out.attempted;
    fail(1, "daemon phase served no reads or no reloads");
  }

  auto add = [&](const std::string& name, const std::string& unit,
                 double value, std::size_t samples) {
    out.metrics.push_back({name, unit, value, samples});
  };
  if (!traced) {
    add("setup_s", "s", median(setup_s), setup_s.size());
    // Fastest build, not the median: a build is ~30k fork-join rounds, so a
    // neighbour that slows thread wake-ups for a few seconds stretches
    // whichever builds it overlaps; the fastest is the steadiest estimate.
    add("build_s", "s", parhop::util::summarize(build_s).min, build_s.size());
    add("peak_rss_mb", "MiB", rss_mb, 1);
    add("index_bytes", "bytes", static_cast<double>(index_bytes), 1);
    add("hops_needed", "hops", q.hops_needed, q.sources);
    add("query_qps", "1/s", static_cast<double>(bp.served) / bp.wall_s,
        bp.served);
    const parhop::util::Summary lat = parhop::util::summarize(bp.latency_s);
    add("query_p50_ms", "ms", 1e3 * lat.p50, bp.served);
    add("query_p99_ms", "ms", 1e3 * lat.p99, bp.served);
    add("reload_p50_ms", "ms", 1e3 * median(sp.reload_latency_s),
        sp.reload_latency_s.size());
    add("failed_frac", "ratio",
        static_cast<double>(out.failed) /
            static_cast<double>(std::max<std::size_t>(1, out.attempted)),
        out.attempted);
    return out;
  }

  // ------------------------------------------- traced-only layer extras --
  // Outside the pipeline root, so they do not count toward the self-time
  // shares below.
  double build_1t = 0;
  pram::Cost metered_build;
  double work_per_query = 0;
  double engine_p50_ms = 0, overhead_frac = 0;
  {
    Span extras(tracer, "bench.extras");
    {
      pram::ThreadPool one(1);
      build(env, &one, g, &build_1t);
    }
    {
      Span span(tracer, "hopset.build_hopset_metered");
      pram::Ctx cx(env.pool);
      const hopset::Hopset hm = hopset::build_hopset(cx, g, hopset::Params{});
      metered_build = hm.build_cost;
      ++out.attempted;
      fail(hopset::hopset_checksum(hm) != hopset::hopset_checksum(h),
           "Metered and Unmetered builds differ");
    }
    {
      Span span(tracer, "query.run_batch_metered");
      std::vector<query::QueryWorkspace> slots;
      const std::vector<query::PointQuery> one_batch(
          distinct.begin(),
          distinct.begin() + static_cast<long>(
                                 std::min(spec.batch, distinct.size())));
      const query::BatchResult br =
          engine->run_batch<pram::Metered>(env.pool, one_batch, slots);
      work_per_query = static_cast<double>(br.cost.work) /
                       static_cast<double>(one_batch.size());
    }
    // The serve stream on a single-threaded engine, each query untraced and
    // with a span around it (the densest span site, so the overhead is an
    // upper bound for the pipeline's). Pairing cancels drift; alternating
    // which side runs first cancels the second run's warmer cache.
    std::vector<query::PointQuery> stream;
    for (const auto& qs : reader_queries)
      stream.insert(stream.end(), qs.begin(), qs.end());
    stream.resize(std::min(stream.size(), spec.replay_queries));
    const query::QueryEngine de = daemon_engine(g, h, hops);
    Env quiet = env;
    quiet.tracer = nullptr;
    const double one_pass = sum(replay(quiet, de, stream, 1));
    const auto passes = static_cast<std::size_t>(
        std::clamp(std::ceil(0.3 / std::max(one_pass, 1e-9)), 1.0, 1000.0));
    std::vector<double> base, ratio;
    for (std::size_t p = 0; p < passes; ++p)
      for (const query::PointQuery& q : stream) {
        const bool plain_first = ratio.size() % 2 == 0;
        const double first = replay(plain_first ? quiet : env, de, {q}, 1)[0];
        const double second = replay(plain_first ? env : quiet, de, {q}, 1)[0];
        const double plain = plain_first ? first : second;
        base.push_back(plain);
        ratio.push_back((plain_first ? second : first) / plain);
      }
    engine_p50_ms = 1e3 * median(base);
    overhead_frac = median(ratio) - 1;
  }

  const HopsetShape shape = hopset_shape(g, built);
  add("graph.gen_s", "s", median(gen_s), gen_s.size());
  add("hopset.build_1t_s", "s", build_1t, 1);
  add("pram.speedup", "x",
      build_1t / parhop::util::summarize(build_s).min, build_s.size());
  add("hopset.work", "ops", static_cast<double>(metered_build.work), 1);
  add("hopset.depth", "rounds", static_cast<double>(metered_build.depth), 1);
  add("hopset.scales", "count", static_cast<double>(shape.scales), 1);
  add("hopset.clusters_in", "count", static_cast<double>(shape.clusters_in),
      1);
  add("hopset.detect_steps", "count", static_cast<double>(shape.detect_steps),
      1);
  add("hopset.bfs_pulses", "count", static_cast<double>(shape.bfs_pulses), 1);
  add("hopset.edges", "count", static_cast<double>(shape.edges), 1);
  add("hopset.dominated_edges", "count",
      static_cast<double>(shape.dominated_edges), 1);
  add("hopset.duplicate_pairs", "count",
      static_cast<double>(shape.duplicate_pairs), 1);
  add("hopset.useful_frac", "ratio", shape.useful_frac, 1);
  add("serialize.write_s", "s", median(write_s), write_s.size());
  add("serialize.read_s", "s", median(read_s), read_s.size());
  add("query.prep_s", "s", median(prep_s), prep_s.size());
  add("query.union_edges", "count",
      static_cast<double>(engine->num_union_edges()), 1);
  add("query.hop_budget", "hops", hops, 1);
  add("query.max_rounds", "rounds", bp.max_rounds, bp.batches);
  add("query.frontier_frac", "ratio", bp.frontier_frac, bp.batches);
  add("query.work_per_query", "ops", work_per_query, spec.batch);
  add("query.busy_s", "s", bp.busy_s, bp.served);
  add("query.pool_busy_frac", "ratio",
      bp.busy_s / (static_cast<double>(nproc) * bp.wall_s), bp.batches);
  add("query.engine_p50_ms", "ms", engine_p50_ms, 1);
  const std::vector<double> reads(sp.read_latency_s.begin(),
                                  sp.read_latency_s.end());
  add("serve.overhead_p50_ms", "ms", 1e3 * median(reads) - engine_p50_ms,
      sp.reads);
  add("serve.busy", "count", static_cast<double>(sp.busy), sp.reads);
  add("serve.errors", "count", static_cast<double>(sp.errors), sp.reads);
  // Mean, not median: the replies print build_s to the millisecond, and a
  // median of such values would repeat exactly from run to run.
  add("serve.reload_prep_ms", "ms",
      1e3 * parhop::util::summarize(sp.reload_prep_s).mean,
      sp.reload_prep_s.size());
  add("serve.writer_lag_ms", "ms",
      1e3 * parhop::util::summarize(sp.writer_lag_s).max,
      sp.writer_lag_s.size());
  add("dynamic.patch_ms", "ms", 1e3 * median(chain.patch_s),
      chain.patch_s.size());
  add("dynamic.suspects_removed", "count",
      static_cast<double>(chain.suspects_removed), chain.patch_s.size());
  add("dynamic.dirty_clusters", "count",
      static_cast<double>(chain.dirty_clusters), chain.patch_s.size());
  add("dynamic.edges_added", "count", static_cast<double>(chain.edges_added),
      chain.patch_s.size());
  add("trace.overhead_frac", "ratio", overhead_frac, 1);
  const std::map<std::string, double> self = tracer->layer_self_us(root_id);
  double total = 0;
  for (const auto& [layer, us] : self) total += us;
  for (const char* layer : {"graph", "hopset", "serialize", "dynamic", "query",
                            "serve", "pram", "bench"}) {
    const auto it = self.find(layer);
    add(std::string("trace.self_share.") + layer, "ratio",
        it == self.end() || total <= 0 ? 0.0 : it->second / total, 1);
  }
  return out;
}

}  // namespace perfbench

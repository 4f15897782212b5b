// The benchmark's calls into the library, one helper per layer call. Each
// helper opens a span named after the layer it enters, so the traced run can
// split every wall into layers, and returns the wall it measured. The
// correctness gates (answers vs references, .phs bytes, RELOAD replies) and
// the quality probes live here too; they run outside the timed regions.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "hopset/dynamic.hpp"
#include "hopset/hopset.hpp"
#include "pram/thread_pool.hpp"
#include "query/query_engine.hpp"
#include "trace.hpp"

namespace perfbench {

namespace graph = parhop::graph;
namespace hopset = parhop::hopset;
namespace pram = parhop::pram;
namespace query = parhop::query;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Median of `xs` (0 when empty).
double median(const std::vector<double>& xs);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

enum class Family { kRoad, kGeo };

/// What every stage needs from the run.
struct Env {
  pram::ThreadPool* pool = nullptr;  ///< the nproc-thread production pool
  Tracer* tracer = nullptr;          ///< null in the timed (untraced) runs
  std::filesystem::path dir;         ///< scratch directory for .phs / .phsd
  std::uint64_t seed = 1;
};

// ------------------------------------------------------------ layer calls --

graph::Graph generate(Env& env, Family f, graph::Vertex n, double* wall_s);

/// Library-default Params on an Unmetered ctx over `pool`.
hopset::Hopset build(Env& env, pram::ThreadPool* pool, const graph::Graph& g,
                     double* wall_s);

/// Writes the .phs file; returns its size in bytes.
std::size_t save(Env& env, const hopset::Hopset& h,
                 const std::filesystem::path& path, double* wall_s);

hopset::Hopset load(Env& env, const std::filesystem::path& path,
                    double* wall_s);

/// QueryEngine over G ∪ H with kernel auto (the ctor materializes the union
/// CSR: this is `query.prep_s`).
query::QueryEngine prep_engine(Env& env, const graph::Graph& g,
                               const hopset::Hopset& h, double* wall_s);

/// probe_hop_budget<Unmetered> on the run's pool.
int probe_budget(Env& env, const query::QueryEngine& e, double* wall_s);

/// An engine configured the way the daemon configures one: kernel auto,
/// serving budget `hops`. The reference for the gates and the replay.
query::QueryEngine daemon_engine(const graph::Graph& g, const hopset::Hopset& h,
                                 int hops);

/// Runs `qs` one after another on a one-thread pool, `passes` times, with a
/// span per query when traced. Returns the per-query latencies.
std::vector<double> replay(Env& env, const query::QueryEngine& e,
                           const std::vector<query::PointQuery>& qs,
                           std::size_t passes);

// ---------------------------------------------------------------- streams --

/// k distinct-endpoint point queries drawn from `seed`.
std::vector<query::PointQuery> seeded_queries(std::size_t k, graph::Vertex n,
                                              std::uint64_t seed);

/// A chain of single-op `.phsd` deltas cut against (g, h) in order, each
/// applied with apply_updates on one thread and default options, as the
/// daemon does on RELOAD. Ops re-weight one existing edge within the graph's
/// original weight range, so the distance unit never moves.
struct DeltaChain {
  std::vector<std::filesystem::path> paths;
  std::vector<std::vector<hopset::UpdateOp>> ops;
  std::vector<double> patch_s;  ///< apply_updates wall per delta
  std::size_t suspects_removed = 0;
  std::size_t dirty_clusters = 0;
  std::size_t edges_added = 0;
  std::size_t failures = 0;  ///< deltas apply_updates refused
};
DeltaChain make_chain(Env& env, graph::Graph g, hopset::Hopset h,
                      std::size_t k, const std::string& stem);

// ----------------------------------------------------------------- phases --

/// Closed-loop run_batch<Unmetered> batches cycling through `distinct`,
/// until `seconds` have passed, at least `min_batches` ran and every
/// distinct query was served.
struct BatchPhase {
  std::vector<double> latency_s;  ///< per served query
  double busy_s = 0;              ///< Σ latency_s
  double wall_s = 0;              ///< Σ batch walls
  std::size_t batches = 0;
  int max_rounds = 0;
  double frontier_frac = 0;  ///< mean over batches
  /// First answer served for each distinct query; later repeats must match
  /// it bit for bit (counted in `mismatches`).
  std::vector<graph::Weight> answer;
  std::size_t served = 0;
  std::size_t mismatches = 0;
};
BatchPhase run_batches(Env& env, const query::QueryEngine& e,
                       const std::vector<query::PointQuery>& distinct,
                       std::size_t batch, double seconds,
                       std::size_t min_batches);

/// One reader's answers by (epoch, query): a reader that gets two different
/// answers for the same query in the same epoch counts a failure at once, so
/// memory stays bounded by epochs × queries however many reads are served.
struct ServeAnswers {
  std::size_t queries = 0;
  std::vector<graph::Weight> dist;  ///< [epoch * queries + qid]
  std::vector<char> seen;
};
struct ServePhase {
  // Floats, reserved up front: peak RSS must not depend on when a vector
  // happened to double.
  std::vector<float> read_latency_s;
  std::vector<ServeAnswers> answers;  ///< per reader
  std::vector<double> reload_latency_s;
  std::vector<double> reload_prep_s;  ///< build_s field of the RELOAD replies
  std::vector<double> writer_lag_s;   ///< send time minus scheduled time
  std::size_t reads = 0;
  std::size_t busy = 0;
  std::size_t errors = 0;  ///< ERR, unparseable or unknown-epoch replies
  std::size_t repeats_differ = 0;
  std::size_t reload_failures = 0;
  double wall_s = 0;
};
/// In-process serve::Server (one worker per pool thread, queue deeper than
/// the clients, fixed serving budget `hops`): one closed-loop reader
/// connection per `reader_queries` entry sends P2P lines while one writer
/// sends `RELOAD <delta>` down the chain on a `cadence_s` schedule, for
/// `seconds` or until the writer has sent the whole chain, whichever is
/// later.
ServePhase run_serve(
    Env& env, const graph::Graph& g, const hopset::Hopset& h,
    const DeltaChain& chain,
    const std::vector<std::vector<query::PointQuery>>& reader_queries,
    int hops, double cadence_s, double seconds);

// ------------------------------------------------------------------ gates --

/// Every distinct answer against a fresh 1-thread reference engine serving
/// at `hop_budget` (bit identity) and exact Dijkstra (within 1+eps).
struct AnswerCheck {
  std::size_t not_identical = 0;
  std::size_t over_stretch = 0;
};
AnswerCheck check_answers(Env& env, const graph::Graph& g,
                          const hopset::Hopset& h, int hop_budget,
                          const std::vector<query::PointQuery>& distinct,
                          const std::vector<graph::Weight>& answer,
                          double eps);

/// Replays the delta chain and checks every served P2P answer bit for bit
/// against a reference engine for the epoch the response names. Returns
/// failures.
std::size_t check_serve(
    Env& env, graph::Graph g, hopset::Hopset h, const DeltaChain& chain,
    const ServePhase& phase,
    const std::vector<std::vector<query::PointQuery>>& reader_queries,
    int hops);

// ---------------------------------------------------------------- quality --

/// hops_needed: the smallest Bellman–Ford budget on G ∪ H meeting 1+eps on
/// `sources` evenly spread probe sources against Dijkstra (max over sources).
struct Quality {
  int hops_needed = 0;
  std::size_t sources = 0;
  std::size_t failures = 0;  ///< sources never within 1+eps at fixpoint
};
Quality probe_quality(Env& env, const graph::Graph& g,
                      const query::QueryEngine& e, double eps,
                      std::size_t sources);

/// Structure of a built hopset: sums over Hopset::scales[].phases and the
/// edges G already dominates or other scales duplicate.
struct HopsetShape {
  std::size_t edges = 0;
  std::size_t scales = 0;
  std::size_t clusters_in = 0;
  std::size_t detect_steps = 0;
  std::size_t bfs_pulses = 0;
  std::size_t dominated_edges = 0;  ///< an equal-or-lighter G edge exists
  std::size_t duplicate_pairs = 0;  ///< pairs emitted by more than one scale
  double useful_frac = 0;           ///< distinct undominated pairs / edges
};
HopsetShape hopset_shape(const graph::Graph& g, const hopset::Hopset& h);

/// Whole-file read, for the .phs byte-identity gate.
std::string read_file(const std::filesystem::path& path);

}  // namespace perfbench

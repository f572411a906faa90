// End-to-end search benchmark: shared declarations.
//
// The benchmark drives real StepwiseSearch runs through the product's
// runners (SerialTaskRunner, InProcessCluster, SocketCluster with in-process
// ranks) and measures every layer from outside: it wraps TaskRunner and the
// worker Transport, reads the public stats getters, and replays the recorded
// task stream through the layers' public functions. Nothing in src/ is
// instrumented for it.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/cluster.hpp"
#include "parallel/socket_cluster.hpp"
#include "search/runner.hpp"
#include "search/search.hpp"
#include "seq/alignment.hpp"

namespace e2e {

// ---------------------------------------------------------------------------
// Workloads

enum class RunnerKind { kSerial, kThread, kSocket };

struct WorkloadSpec {
  std::string name;
  int taxa = 0;
  std::size_t sites = 0;
  RunnerKind runner = RunnerKind::kSerial;
  int workers = 1;
  /// Stepwise insertion only (rearrange_cross = final_rearrange_cross = 0).
  bool insertion_only = false;
  /// Alignments per run. The work of a default search moves by about ±25%
  /// from one alignment to the next (the number of accepted rearrangements
  /// varies), so the rearrangement workloads average several; insertion-only
  /// work is a fixed task count for every alignment.
  int instances = 1;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// Search options of a workload; the search seed is the input seed.
fdml::SearchOptions search_options(const WorkloadSpec& spec,
                                   std::uint64_t seed);

/// The part of a workload that determines its answer (reference cache key).
std::string answer_config(const WorkloadSpec& spec);

// ---------------------------------------------------------------------------
// Set-up: what a user pays before the first search

/// The loaded input: PHYLIP file -> PatternAlignment -> F84 (ts/tv 2),
/// uniform rates — the fastdnamlpp CLI defaults.
struct Problem {
  /// Reads the file, compresses it to patterns and builds the model.
  static Problem load(const std::string& phylip_path);

  fdml::PatternAlignment data;
  fdml::SubstModel model;
  fdml::RateModel rates;
  /// FNV-1a digest of the input file's bytes.
  std::uint64_t input_digest = 0;
};

/// Cumulative transport and health counters of a deployment.
struct FabricTotals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t requeues = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t watchdog_trips = 0;
};

/// Time the thread backend's workers spend blocked in Transport::recv,
/// measured by a decorator installed through
/// ClusterOptions::wrap_worker_transport.
class RecvWaitMeter {
 public:
  /// Total blocked seconds so far, counting receives still in progress.
  double total_seconds() const;

  std::unique_ptr<fdml::Transport> wrap(std::unique_ptr<fdml::Transport> inner);

 private:
  friend class MeteredTransport;
  void begin_wait(int rank, std::uint64_t now_ns);
  void end_wait(int rank, std::uint64_t now_ns);

  struct Slot {
    int rank = -1;
    std::uint64_t waited_ns = 0;
    std::uint64_t blocked_since_ns = 0;  // 0 = not blocked
  };
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
};

/// A runner ready for searches: serial, thread cluster, or a socket cluster
/// whose non-master ranks run as threads of this process over loopback.
class Deployment {
 public:
  /// Blocks until the runner is ready (socket: every rank joined).
  /// `meter` (thread backend only; may be null) wraps each worker transport.
  Deployment(const WorkloadSpec& spec, const Problem& problem,
             RecvWaitMeter* meter = nullptr);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  fdml::TaskRunner& runner();
  int workers() const { return workers_; }
  FabricTotals totals() const;

 private:
  void shutdown();

  int workers_ = 1;
  /// Registry for the socket deployment's master and foreman counters
  /// (declared before the roles that hold references into it).
  fdml::obs::MetricsRegistry registry_;
  std::unique_ptr<fdml::SerialTaskRunner> serial_;
  std::unique_ptr<fdml::InProcessCluster> cluster_;
  std::unique_ptr<fdml::SocketCluster> socket_;
  std::vector<std::thread> roles_;
};

// ---------------------------------------------------------------------------
// Correctness oracle

struct Answer {
  std::string newick;
  double log_likelihood = 0.0;
  std::uint64_t trees_evaluated = 0;
};

/// The serial answer for one input and seed, as stored: the Newick is kept
/// as its FNV-1a digest, so that references for many seeds fit in the
/// benchmark's directory.
struct Reference {
  std::uint64_t seed = 0;
  std::uint64_t input_digest = 0;
  std::uint64_t trees_evaluated = 0;
  std::uint64_t lnl_bits = 0;
  std::uint64_t newick_digest = 0;
};

Reference reference_of(const Answer& answer, std::uint64_t seed,
                       const Problem& problem);

/// Everything an answer depends on besides seed and input: the search
/// configuration, the kernel backend the engine dispatches for this input
/// and the arithmetic tier ("default-search.avx512.exact"). It names the
/// reference file, so answers of different backends are never compared.
std::string answer_key(const WorkloadSpec& spec, const Problem& problem);

/// Every reference line of a reference file (none when it is missing).
std::vector<Reference> load_references(const std::string& path);
/// nullopt when `references` has no line for this seed and input.
std::optional<Reference> find_reference(const std::vector<Reference>& references,
                                        std::uint64_t seed,
                                        std::uint64_t input_digest);
/// Appends one line, writing the file's header first if it is new.
void append_reference(const std::string& path, const Reference& reference);
/// Rewrites a reference file with `references`, sorted by seed (atomic).
void write_references(const std::string& path, std::vector<Reference> references);

/// Runs the serial reference search.
Answer serial_answer(const WorkloadSpec& spec, const Problem& problem,
                     std::uint64_t seed);

/// Empty when `got` equals the reference bit for bit and its Newick
/// re-evaluates (fresh LikelihoodEngine) within 1e-6 relative of the
/// reported lnL; otherwise the reason it failed.
std::string check_answer(const Answer& got, const Reference& reference,
                         const Problem& problem);

/// Empty when the search needed no requeue, fallback or watchdog trip.
std::string check_health(const FabricTotals& before, const FabricTotals& after);

// ---------------------------------------------------------------------------
// Per-layer measurement (traced run)

/// One dispatched round as the search saw it.
struct RoundRecord {
  fdml::RoundKind kind = fdml::RoundKind::kInsertion;
  std::vector<fdml::TreeTask> tasks;
  fdml::RoundOutcome outcome;
  double wall_s = 0.0;
};

/// TaskRunner decorator: records every round's tasks, outcome and wall time,
/// and the master-side time between rounds.
class RoundRecorder final : public fdml::TaskRunner {
 public:
  explicit RoundRecorder(fdml::TaskRunner& inner) : inner_(inner) {}

  fdml::RoundOutcome run_round(const std::vector<fdml::TreeTask>& tasks) override;
  int worker_count() const override { return inner_.worker_count(); }

  /// Bracket StepwiseSearch::run with these.
  void begin();
  void end();
  /// Copies the round kinds from the search's own trace (same order).
  void label(const fdml::SearchTrace& trace);

  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  /// StepwiseSearch::run entry to return.
  double search_s() const;
  /// Time outside run_round: the search loop's own work between rounds.
  double master_s() const { return master_ns_ * 1e-9; }

 private:
  fdml::TaskRunner& inner_;
  std::vector<RoundRecord> rounds_;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  std::uint64_t last_exit_ns_ = 0;
  std::uint64_t master_ns_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TimeRow {
  std::string label;
  double seconds = 0.0;
};

/// What the traced run observed live, besides the recorded rounds.
struct LiveObservation {
  const RoundRecorder* recorder = nullptr;
  std::string final_newick;
  int workers = 1;
  FabricTotals fabric;            // deltas over the traced search
  double recv_wait_s = 0.0;       // thread backend only
  double batch_fill_sum = 0.0;    // kernel.batch_fill deltas
  std::uint64_t batch_fill_count = 0;
  /// Tasks per evaluate_batch call in the replay: 0 replays a round as one
  /// call (the serial runner); n > 0 replays n tasks a call (the workers).
  int replay_batch = 0;
  double trace_overhead = 0.0;    // median of traced / untraced - 1
  int overhead_pairs = 0;
  double load_s = 0.0;            // set-up medians
  double runner_s = 0.0;
  std::size_t patterns = 0;
};

struct LayerReport {
  std::vector<Metric> metrics;
  /// "Where the time goes": rows sum to search_s; the last row is
  /// `unattributed`.
  std::vector<TimeRow> table;
  double search_s = 0.0;
  std::uint64_t replay_mismatches = 0;
};

/// Replays the recorded rounds through the public layer functions (codecs,
/// Newick, TaskEvaluator::evaluate_batch, TreeEvaluator) and assembles the
/// per-layer metrics and the time table.
LayerReport measure_layers(const Problem& problem, const LiveObservation& live);

/// The process-wide multi-edge capture fill histogram (edges per capture).
fdml::obs::Histogram& batch_fill_histogram();

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);

/// The IEEE-754 bit pattern of `value` (bit-for-bit comparisons).
inline std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace e2e

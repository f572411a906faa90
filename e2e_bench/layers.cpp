// Per-layer measurement for the traced run: the TaskRunner decorator, the
// replay of the recorded task stream through each layer's public functions,
// and the "where the time goes" table.
#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "likelihood/evaluator.hpp"
#include "obs/trace.hpp"
#include "search/task_evaluator.hpp"
#include "tree/newick.hpp"
#include "util/packer.hpp"
#include "util/timer.hpp"

namespace e2e {

using namespace fdml;

obs::Histogram& batch_fill_histogram() {
  return obs::MetricsRegistry::process().histogram(
      "kernel.batch_fill", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------------
// RoundRecorder

void RoundRecorder::begin() {
  rounds_.clear();
  master_ns_ = 0;
  begin_ns_ = monotonic_ns();
  last_exit_ns_ = begin_ns_;
}

void RoundRecorder::end() {
  end_ns_ = monotonic_ns();
  master_ns_ += end_ns_ - last_exit_ns_;
}

double RoundRecorder::search_s() const {
  return static_cast<double>(end_ns_ - begin_ns_) * 1e-9;
}

RoundOutcome RoundRecorder::run_round(const std::vector<TreeTask>& tasks) {
  const std::uint64_t enter_ns = monotonic_ns();
  master_ns_ += enter_ns - last_exit_ns_;
  RoundOutcome outcome = inner_.run_round(tasks);
  const std::uint64_t exit_ns = monotonic_ns();
  // Copying the round for the replay is the decorator's own cost; it falls
  // outside both intervals and shows as `unattributed`.
  RoundRecord record;
  record.tasks = tasks;
  record.outcome = outcome;
  record.wall_s = static_cast<double>(exit_ns - enter_ns) * 1e-9;
  rounds_.push_back(std::move(record));
  last_exit_ns_ = monotonic_ns();
  return outcome;
}

void RoundRecorder::label(const SearchTrace& trace) {
  if (trace.rounds.size() != rounds_.size()) {
    throw std::logic_error("search trace and recorded rounds disagree");
  }
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    rounds_[i].kind = trace.rounds[i].kind;
  }
}

// ---------------------------------------------------------------------------
// Replay and metrics

namespace {

constexpr const char* kKinds[] = {"insertion", "winner", "rearrange"};

/// The initial 3-taxon optimization is a single full-smoothing round too,
/// so it is counted with the winners.
const char* kind_bucket(RoundKind kind) {
  switch (kind) {
    case RoundKind::kInsertion:
      return "insertion";
    case RoundKind::kRearrange:
      return "rearrange";
    case RoundKind::kInitial:
    case RoundKind::kWinner:
      return "winner";
  }
  return "winner";
}

/// Per-kind accumulators.
struct KindSums {
  std::uint64_t rounds = 0;
  std::uint64_t tasks = 0;
  double wall_s = 0.0;
  double task_cpu_s = 0.0;
  double replay_evaluate_s = 0.0;
  std::vector<double> round_ms;
};

/// Sums over the replay of every recorded round.
struct ReplaySums {
  std::uint64_t task_bytes = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t newick_bytes = 0;
  double codec_s = 0.0;
  double parse_s = 0.0;
  double write_s = 0.0;
  double evaluate_cpu_s = 0.0;  // thread CPU inside evaluate_batch
  KernelCounters counters;     // deltas
  std::uint64_t mismatches = 0;
};

/// Adds the counter deltas between two engine snapshots to `sum`.
void accumulate(KernelCounters& sum, const KernelCounters& before,
                const KernelCounters& after) {
  sum.transition_hits += after.transition_hits - before.transition_hits;
  sum.transition_misses += after.transition_misses - before.transition_misses;
  sum.edge_evaluations += after.edge_evaluations - before.edge_evaluations;
  sum.clv_computations += after.clv_computations - before.clv_computations;
  sum.kernel_ns += after.kernel_ns - before.kernel_ns;
}

/// The foreman's selection rule: highest lnL, ties to the lowest task id
/// (the serial runner's first-wins order picks the same result).
const TaskResult& round_winner(const std::vector<TaskResult>& results) {
  const TaskResult* best = &results.front();
  for (const TaskResult& r : results) {
    if (r.log_likelihood > best->log_likelihood ||
        (r.log_likelihood == best->log_likelihood && r.task_id < best->task_id)) {
      best = &r;
    }
  }
  return *best;
}

/// Replays one round: codecs and Newick per task, then the tasks through
/// evaluate_batch, `batch` tasks a call (0: the whole round in one call).
void replay_round(const RoundRecord& round, int batch, TaskEvaluator& evaluator,
                  const std::vector<std::string>& names, ReplaySums& sums,
                  KindSums& kind) {
  for (const TreeTask& task : round.tasks) {
    Timer codec;
    Packer packer;
    task.pack(packer);
    Unpacker unpacker(packer.data());
    const TreeTask decoded = TreeTask::unpack(unpacker);
    sums.codec_s += codec.seconds();
    sums.task_bytes += packer.size();
    sums.newick_bytes += decoded.newick.size();

    obs::Span span("bench", "replay.newick");
    Timer parse;
    const Tree tree = tree_from_newick(decoded.newick, names);
    sums.parse_s += parse.seconds();
    Timer write;
    const std::string text = to_newick(tree, names, 17);
    sums.write_s += write.seconds();
    if (text.empty()) throw std::logic_error("empty Newick");
  }

  const KernelCounters before = evaluator.engine().counters();
  const std::size_t step = batch > 0 ? static_cast<std::size_t>(batch)
                                     : std::max<std::size_t>(round.tasks.size(), 1);
  std::vector<TaskResult> results;
  for (std::size_t start = 0; start < round.tasks.size(); start += step) {
    const std::vector<TreeTask> chunk(
        round.tasks.begin() + static_cast<std::ptrdiff_t>(start),
        round.tasks.begin() +
            static_cast<std::ptrdiff_t>(std::min(round.tasks.size(), start + step)));
    obs::Span span("bench", "replay.evaluate_batch", "tasks",
                   static_cast<std::int64_t>(chunk.size()));
    Timer evaluate;
    CpuTimer cpu;
    std::vector<TaskResult> part = evaluator.evaluate_batch(chunk);
    sums.evaluate_cpu_s += cpu.seconds();
    kind.replay_evaluate_s += evaluate.seconds();
    results.insert(results.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  accumulate(sums.counters, before, evaluator.engine().counters());

  for (const TaskResult& result : results) {
    Timer codec;
    Packer packer;
    result.pack(packer);
    Unpacker unpacker(packer.data());
    const TaskResult decoded = TaskResult::unpack(unpacker);
    sums.codec_s += codec.seconds();
    sums.result_bytes += packer.size();
    if (decoded.task_id != result.task_id) throw std::logic_error("codec");
  }

  const TaskResult& replayed = round_winner(results);
  const TaskResult& live = round.outcome.best;
  if (replayed.task_id != live.task_id ||
      bits_of(replayed.log_likelihood) != bits_of(live.log_likelihood) ||
      replayed.newick != live.newick) {
    ++sums.mismatches;
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

LayerReport measure_layers(const Problem& problem, const LiveObservation& live) {
  const RoundRecorder& recorder = *live.recorder;
  const double workers = static_cast<double>(std::max(1, live.workers));

  // Live rounds: per-kind sums and the per-round CPU split of the wall time.
  std::map<std::string, KindSums> kinds;
  for (const char* k : kKinds) kinds[k];
  double total_wall = 0.0;
  double total_cpu = 0.0;
  double imbalance = 0.0;
  double slack = 0.0;
  std::uint64_t tasks = 0;
  for (const RoundRecord& round : recorder.rounds()) {
    KindSums& kind = kinds[kind_bucket(round.kind)];
    ++kind.rounds;
    kind.tasks += round.tasks.size();
    kind.wall_s += round.wall_s;
    kind.round_ms.push_back(round.wall_s * 1e3);
    std::map<int, double> per_worker;
    double round_cpu = 0.0;
    for (const TaskStat& stat : round.outcome.stats) {
      per_worker[stat.worker] += stat.cpu_seconds;
      round_cpu += stat.cpu_seconds;
    }
    double busiest = 0.0;
    for (const auto& [worker, cpu] : per_worker) busiest = std::max(busiest, cpu);
    kind.task_cpu_s += round_cpu;
    total_wall += round.wall_s;
    total_cpu += round_cpu;
    imbalance += busiest - round_cpu / workers;
    slack += round.wall_s - busiest;
    tasks += round.tasks.size();
  }

  // Replay through the layers' public functions.
  ReplaySums sums;
  TaskEvaluator evaluator(problem.data, problem.model, problem.rates);
  obs::Histogram& fill = batch_fill_histogram();
  const double fill_sum0 = fill.sum();
  const std::uint64_t fill_count0 = fill.count();
  for (const RoundRecord& round : recorder.rounds()) {
    replay_round(round, live.replay_batch, evaluator, problem.data.names(), sums,
                 kinds[kind_bucket(round.kind)]);
  }
  const double replay_fill =
      ratio(fill.sum() - fill_sum0, static_cast<double>(fill.count() - fill_count0));
  double full_smooth_s = 0.0;
  {
    obs::Span span("bench", "replay.full_smooth");
    Tree tree = tree_from_newick(live.final_newick, problem.data.names());
    TreeEvaluator full(problem.data, problem.model, problem.rates);
    Timer timer;
    full.evaluate(tree);
    full_smooth_s = timer.seconds();
  }

  const double task_count = static_cast<double>(std::max<std::uint64_t>(tasks, 1));
  const double kernel_s = static_cast<double>(sums.counters.kernel_ns) * 1e-9;
  const double kernel_share = ratio(kernel_s, sums.evaluate_cpu_s);
  const double search_s = recorder.search_s();
  const double master_s = recorder.master_s();

  LayerReport report;
  report.search_s = search_s;
  report.replay_mismatches = sums.mismatches;
  auto add_metric = [&](std::string name, double value, std::string unit) {
    report.metrics.push_back({std::move(name), value, std::move(unit)});
  };

  for (const char* k : kKinds) {
    add_metric(std::string("search.rounds.") + k,
               static_cast<double>(kinds[k].rounds), "count");
  }
  for (const char* k : kKinds) {
    add_metric(std::string("search.tasks.") + k,
               static_cast<double>(kinds[k].tasks), "count");
  }
  add_metric("search.master_s", master_s, "s");
  for (const char* k : kKinds) {
    add_metric(std::string("search.round_s.") + k, kinds[k].wall_s, "s");
  }
  for (const char* k : kKinds) {
    add_metric(std::string("search.round_ms.") + k + ".p50",
               percentile(kinds[k].round_ms, 0.5), "ms");
    add_metric(std::string("search.round_ms.") + k + ".p90",
               percentile(kinds[k].round_ms, 0.9), "ms");
  }

  add_metric("parallel.utilization", ratio(total_cpu, workers * total_wall),
             "ratio");
  add_metric("parallel.round_slack_s", slack, "s");
  add_metric("parallel.imbalance_s", imbalance, "s");
  add_metric("parallel.overhead_us_per_task",
             (workers * total_wall - total_cpu) / task_count * 1e6, "us/task");
  for (const char* k : kKinds) {
    add_metric(std::string("parallel.task_cpu_s.") + k, kinds[k].task_cpu_s, "s");
  }
  add_metric("parallel.batch_fill_mean",
             ratio(live.batch_fill_sum, static_cast<double>(live.batch_fill_count)),
             "edges");
  add_metric("parallel.requeues", static_cast<double>(live.fabric.requeues),
             "count");
  add_metric("parallel.fallbacks", static_cast<double>(live.fabric.fallbacks),
             "count");

  add_metric("comm.messages_per_task",
             static_cast<double>(live.fabric.messages) / task_count, "msg/task");
  add_metric("comm.task_bytes_mean",
             static_cast<double>(sums.task_bytes) / task_count, "B");
  add_metric("comm.result_bytes_mean",
             static_cast<double>(sums.result_bytes) / task_count, "B");
  add_metric("comm.codec_us_per_task", sums.codec_s / task_count * 1e6,
             "us/task");
  add_metric("comm.worker_recv_wait_s", live.recv_wait_s, "s");

  add_metric("tree.newick_bytes_per_task",
             static_cast<double>(sums.newick_bytes) / task_count, "B/task");
  add_metric("tree.parse_us_per_task", sums.parse_s / task_count * 1e6,
             "us/task");
  add_metric("tree.write_us_per_task", sums.write_s / task_count * 1e6,
             "us/task");

  add_metric("likelihood.kernel_s", kernel_s, "s");
  add_metric("likelihood.kernel_share", kernel_share, "ratio");
  for (const char* k : kKinds) {
    add_metric(std::string("likelihood.evaluate_us.") + k,
               ratio(kinds[k].replay_evaluate_s,
                     static_cast<double>(kinds[k].tasks)) * 1e6,
               "us/task");
  }
  add_metric("likelihood.full_smooth_ms", full_smooth_s * 1e3, "ms");
  add_metric("likelihood.clv_per_task",
             static_cast<double>(sums.counters.clv_computations) / task_count,
             "count/task");
  add_metric("likelihood.edge_evals_per_task",
             static_cast<double>(sums.counters.edge_evaluations) / task_count,
             "count/task");
  add_metric("likelihood.transition_hit_rate",
             sums.counters.transition_hit_rate(), "ratio");

  add_metric("seq.load_s", live.load_s, "s");
  add_metric("seq.patterns", static_cast<double>(live.patterns), "count");
  add_metric("setup.runner_s", live.runner_s, "s");

  // Where the time goes. The rounds' wall time splits exactly into the mean
  // worker's task CPU (kernel and the rest, by the replay's kernel share),
  // the busiest worker's excess over the mean, and the time even the
  // busiest worker was not evaluating (dispatch, codecs, transport, barrier).
  const double mean_cpu = total_cpu / workers;
  report.table = {
      {"search.master_s (search loop between rounds)", master_s},
      {"rounds: task CPU in likelihood kernels", mean_cpu * kernel_share},
      {"rounds: task CPU outside kernels", mean_cpu * (1.0 - kernel_share)},
      {"rounds: imbalance (busiest worker - mean)", imbalance},
      {"rounds: slack (wall - busiest worker CPU)", slack},
  };
  double attributed = 0.0;
  for (const TimeRow& row : report.table) attributed += row.seconds;
  report.table.push_back({"unattributed", search_s - attributed});

  add_metric("bench.unattributed_share",
             ratio(report.table.back().seconds, search_s), "ratio");
  add_metric("bench.trace_overhead", live.trace_overhead, "ratio");
  add_metric("bench.trace_overhead_pairs", live.overhead_pairs, "count");
  add_metric("bench.replay_batch_fill_mean", replay_fill, "edges");
  add_metric("bench.replay_mismatches", static_cast<double>(sums.mismatches),
             "count");
  return report;
}

}  // namespace e2e

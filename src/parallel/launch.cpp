#include "parallel/launch.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <utility>

#include "model/simulate.hpp"
#include "parallel/protocol.hpp"
#include "seq/fingerprint.hpp"
#include "seq/phylip.hpp"
#include "tree/newick.hpp"
#include "util/log.hpp"

namespace fdml {
namespace {

using ms = std::chrono::milliseconds;

unsigned long long ull(std::uint64_t value) {
  return static_cast<unsigned long long>(value);
}

}  // namespace

void apply_output_flags(const CliArgs& args) {
  if (args.has("log-level")) {
    const auto level = parse_log_level(args.get("log-level", ""));
    if (!level.has_value()) {
      throw UsageError("bad --log-level (debug|info|warn|error|off)");
    }
    set_log_level(*level);
  }
  if (args.has("trace-out")) obs::Tracer::instance().enable();
}

SocketRunOptions socket_options_from_flags(const CliArgs& args) {
  SocketRunOptions options;
  options.socket.rank = static_cast<int>(args.get_int("rank", 0));
  options.socket.size = static_cast<int>(args.get_int("fabric-size", 0));
  options.socket.host = args.get("host", "127.0.0.1");
  options.socket.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  options.socket.connect_timeout = ms(args.get_int("connect-timeout-ms", 15000));
  options.socket.reconnect = args.has("reconnect");
  options.socket.reconnect_budget =
      ms(args.get_int("reconnect-budget-ms", 15000));
  options.foreman.worker_timeout = ms(args.get_int("timeout-ms", 30000));
  options.foreman.heartbeat_interval = ms(args.get_int("heartbeat-ms", 0));
  // 0 (the default) keeps the fabric byte-for-byte identical to a
  // telemetry-free build.
  options.telemetry_interval = ms(args.get_int("telemetry-ms", 0));
  return options;
}

bool socket_transport(const CliArgs& args) {
  const std::string transport = args.get("transport", "thread");
  if (transport == "thread") return false;
  if (transport != "socket") {
    throw UsageError("unknown --transport=" + transport + " (thread|socket)");
  }
  if (!args.has("port") || !args.has("fabric-size")) {
    throw UsageError(
        "--transport=socket needs --port and --fabric-size (and --rank, 0 "
        "for the master)");
  }
  return true;
}

bool is_peer_rank(const CliArgs& args) {
  return socket_transport(args) && args.get_int("rank", 0) != 0;
}

bool has_problem(const CliArgs& args) {
  return !args.positional().empty() || args.has("input") || args.has("taxa") ||
         args.has("sites");
}

Problem::Problem(Alignment alignment_in, double tstv, RateModel rates_in)
    : alignment(std::move(alignment_in)),
      data(alignment),
      model(SubstModel::f84_from_tstv(data.base_frequencies(), tstv)),
      rates(std::move(rates_in)) {}

std::unique_ptr<const Problem> load_problem(const CliArgs& args) {
  Alignment alignment;
  if (args.has("input") || !args.positional().empty()) {
    const std::string path =
        args.has("input") ? args.get("input", "") : args.positional().front();
    try {
      alignment = read_phylip_file(path);
    } catch (const std::exception& error) {
      throw std::runtime_error("reading " + path + ": " + error.what());
    }
  } else if (args.has("taxa") && args.has("sites")) {
    alignment = make_paper_like_dataset(
        static_cast<int>(args.get_int("taxa", 0)),
        static_cast<std::size_t>(args.get_int("sites", 0)), 4242);
  } else {
    throw UsageError(
        "no input: give ALIGNMENT.phy, --input=FILE, or both --taxa and "
        "--sites");
  }
  RateModel rates =
      args.has("gamma")
          ? RateModel::discrete_gamma(
                args.get_double("gamma", 0.5),
                static_cast<int>(args.get_int("categories", 4)))
          : RateModel::uniform();
  return std::make_unique<const Problem>(
      std::move(alignment), args.get_double("tstv", 2.0), std::move(rates));
}

SearchOptions search_options_from_flags(const CliArgs& args) {
  const bool checkpointed = args.has("checkpoint") || args.has("resume");
  if (checkpointed && args.get_int("jumble", 1) > 1) {
    throw UsageError(
        "--checkpoint/--resume cover one ordering; run each --seed "
        "separately instead of --jumble");
  }
  if (checkpointed && args.has("bootstrap")) {
    throw UsageError("--checkpoint/--resume do not apply to --bootstrap");
  }
  if (args.has("bootstrap") && socket_transport(args)) {
    throw UsageError(
        "--bootstrap is not available over --transport=socket (bootstrap "
        "uses in-process runners)");
  }
  SearchOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.rearrange_cross = static_cast<int>(args.get_int("cross", 1));
  options.final_rearrange_cross =
      static_cast<int>(args.get_int("final-cross", options.rearrange_cross));
  options.adaptive_max_cross = static_cast<int>(args.get_int("adaptive", 0));
  options.checkpoint_path = args.get("checkpoint", "");
  options.checkpoint_keep =
      static_cast<std::uint64_t>(args.get_int("checkpoint-keep", 3));
  return options;
}

JumbleResult run_search(const CliArgs& args, const PatternAlignment& data,
                        SearchOptions options, TaskRunner& runner) {
  options.dataset_fingerprint = alignment_fingerprint(data);
  if (!args.has("resume")) {
    return run_jumbles(data, options,
                       static_cast<int>(args.get_int("jumble", 1)), runner);
  }
  // Crash recovery: roll back to the newest valid checkpoint generation and
  // continue; the completed result is bit-for-bit the uninterrupted run's.
  const std::string path = args.get("resume", "");
  std::optional<RecoveredCheckpoint> recovered;
  try {
    recovered = recover_checkpoint(path, options.dataset_fingerprint);
  } catch (const std::exception& error) {
    throw std::runtime_error("cannot resume from " + path + ": " + error.what());
  }
  if (!recovered.has_value()) {
    throw std::runtime_error("no usable checkpoint at " + path);
  }
  std::printf("resuming from %s (generation %llu, %d of %zu taxa placed)\n",
              recovered->path.c_str(), ull(recovered->generation),
              recovered->checkpoint.next_order_index, data.num_taxa());
  if (options.checkpoint_path.empty()) options.checkpoint_path = path;
  options.seed = recovered->checkpoint.seed;
  JumbleResult result;
  result.runs.push_back(
      StepwiseSearch(data, options).resume(runner, recovered->checkpoint));
  return result;
}

int run_peer_rank(const CliArgs& args, const Problem& problem) {
  const SocketRunOptions options = socket_options_from_flags(args);
  SocketRoleResult role;
  try {
    role = run_socket_role(problem.data, problem.model, problem.rates, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rank %d: %s\n", options.socket.rank, error.what());
    return 1;
  }
  if (const auto& f = role.foreman) {
    std::printf("foreman: %llu rounds, %llu tasks, %llu requeues, "
                "%llu delinquencies, %llu quarantines, %llu probation passes, "
                "%llu heartbeat pings\n",
                ull(f->rounds), ull(f->tasks_completed), ull(f->requeues),
                ull(f->delinquencies), ull(f->quarantines),
                ull(f->probation_passes), ull(f->heartbeat_pings));
  } else if (const auto& m = role.monitor) {
    std::printf("monitor: %llu rounds, %llu completions, %.2fs worker CPU\n",
                ull(m->rounds), ull(m->completions),
                m->total_worker_cpu_seconds);
  } else if (const auto& w = role.worker) {
    std::printf("worker %d: %llu tasks, %.2fs CPU, %llu telemetry frames\n",
                role.rank, ull(w->tasks_evaluated), w->cpu_seconds,
                ull(w->telemetry_frames));
  }
  // Every process traces itself; the rank suffix keeps a cluster launched
  // with one argv from clobbering a shared path.
  if (args.has("trace-out") &&
      !write_trace_file(args.get("trace-out", "") + ".rank" +
                        std::to_string(role.rank))) {
    return 1;
  }
  return 0;
}

Deployment::Deployment(const CliArgs& args, const Problem& problem) {
  SocketRunOptions transport = socket_options_from_flags(args);
  connect_timeout_ = transport.socket.connect_timeout;
  if (socket_transport(args)) {
    // Rank 0 of a multi-process run: fabric hub + master; every other rank
    // is another OS process rendezvousing on our port.
    transport.socket.rank = kMasterRank;
    socket_ = std::make_unique<SocketCluster>(problem.data, problem.model,
                                              problem.rates, transport);
    std::printf("socket cluster: hub on port %u, 1 master + 1 foreman + "
                "1 monitor + %d workers (%d processes)\n",
                static_cast<unsigned>(transport.socket.port),
                socket_->num_workers(), transport.socket.size);
  } else if (args.has("workers")) {
    ClusterOptions options;
    options.num_workers = static_cast<int>(args.get_int("workers", 4));
    options.foreman = transport.foreman;
    if (args.has("chaos")) {
      // A serialized FaultPlan, e.g. "chaos-plan v1 seed=7 drop=0.05": the
      // same line replays the same fault schedule on every run.
      options.chaos = FaultPlan::parse(args.get("chaos", ""));
    }
    cluster_ = std::make_unique<InProcessCluster>(problem.data, problem.model,
                                                  problem.rates, options);
    std::printf("cluster: 1 master + 1 foreman + 1 monitor + %d workers\n",
                cluster_->num_workers());
    if (options.chaos) {
      std::printf("chaos: %s\n", options.chaos->serialize().c_str());
    }
  } else if (args.has("chaos")) {
    throw UsageError("--chaos needs --workers=N (it faults worker transports)");
  } else {
    serial_ = std::make_unique<SerialTaskRunner>(problem.data, problem.model,
                                                 problem.rates);
  }
}

Deployment::~Deployment() { shutdown(); }

bool Deployment::wait_ready() {
  if (!socket_) return true;
  if (!socket_->wait_ready(connect_timeout_)) {
    std::fprintf(stderr,
                 "error: fabric incomplete after %lld ms (some rank never "
                 "announced)\n",
                 static_cast<long long>(connect_timeout_.count()));
    return false;
  }
  std::printf("fabric ready: all %d ranks announced\n",
              socket_->num_workers() + kFirstWorkerRank);
  return true;
}

TaskRunner& Deployment::runner() {
  if (socket_) return socket_->runner();
  if (cluster_) return cluster_->runner();
  return *serial_;
}

void Deployment::shutdown() {
  if (cluster_) cluster_->shutdown();
  if (socket_) socket_->shutdown();
}

void Deployment::print_summary() const {
  MasterStats master;
  if (cluster_) {
    const MonitorReport report = cluster_->monitor_report();
    double slack = 0.0;
    for (double s : report.round_slack_seconds) slack += s;
    if (!report.round_slack_seconds.empty()) {
      slack /= static_cast<double>(report.round_slack_seconds.size());
    }
    std::printf("\nmonitor: %llu rounds, %llu tasks, %llu requeues, "
                "%llu delinquent, %.2fs worker CPU, mean barrier slack %.4fs\n",
                ull(report.rounds), ull(report.completions),
                ull(report.requeues), ull(report.delinquencies),
                report.total_worker_cpu_seconds, slack);
    std::printf("  tasks per worker:");
    for (const auto& [worker, count] : report.tasks_per_worker) {
      std::printf(" w%d:%llu", worker, ull(count));
    }
    std::printf("\nfabric: %llu messages, %llu bytes\n",
                ull(cluster_->fabric_messages()), ull(cluster_->fabric_bytes()));
    if (const auto totals = cluster_->chaos_totals()) {
      const ForemanStats& foreman = cluster_->foreman_stats();
      std::printf("chaos: %llu dropped, %llu duplicated, %llu corrupted, "
                  "%llu task-corrupt, %llu delayed, %llu reordered, "
                  "%llu crashes; %llu quarantines, %llu probations\n",
                  ull(totals->drops), ull(totals->duplicates),
                  ull(totals->corruptions), ull(totals->task_corruptions),
                  ull(totals->delays), ull(totals->reorders),
                  ull(totals->crashes), ull(foreman.quarantines),
                  ull(foreman.probations));
    }
    master = cluster_->master_stats();
  }
  if (socket_) {
    const SocketFabricStats fabric = socket_->fabric_stats();
    std::printf("\nfabric: %llu frames out / %llu in, %llu bytes out / "
                "%llu in, %llu peer deaths, %llu dropped\n",
                ull(fabric.frames_sent), ull(fabric.frames_received),
                ull(fabric.bytes_sent), ull(fabric.bytes_received),
                ull(fabric.peer_deaths), ull(fabric.frames_dropped));
    master = socket_->master_stats();
  }
  if (master.serial_fallbacks > 0 || master.rounds_failed > 0) {
    std::printf("degradation: %llu failed rounds, %llu serial fallbacks\n",
                ull(master.rounds_failed), ull(master.serial_fallbacks));
  }
}

bool write_result_file(const std::string& path, const std::string& newick,
                       const std::vector<std::string>& names,
                       double log_likelihood) {
  char lnl[64];
  std::snprintf(lnl, sizeof lnl, "lnL %.6f\n", log_likelihood);
  std::ofstream out(path);
  out << to_newick(tree_from_newick(newick, names), names, 10) << "\n" << lnl;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

bool write_trace_file(const std::string& path, const obs::TraceLog& log) {
  std::ofstream out(path);
  log.write_chrome(out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote trace: %s (%zu events, %llu dropped)\n", path.c_str(),
              log.events.size(), ull(log.dropped_events));
  return true;
}

bool write_trace_file(const std::string& path) {
  obs::Tracer::instance().disable();
  return write_trace_file(path, obs::Tracer::instance().drain());
}

}  // namespace fdml

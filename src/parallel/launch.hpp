// The launcher: the one place that turns command-line flags into a running
// deployment. The paper keeps every message-passing call in one file so no
// front-end has to know the transport; this module does the same for the
// flag wiring, so fastdnamlpp and fdmld parse, build and report identically.
//
//   problem    ALIGNMENT.phy | --input=FILE | --taxa=N --sites=M (synthetic,
//              make_paper_like_dataset seed 4242); --tstv --gamma --categories
//   transport  --transport=thread|socket --rank --fabric-size --host --port
//              --connect-timeout-ms --timeout-ms --reconnect
//              --reconnect-budget-ms --heartbeat-ms --telemetry-ms
//   runner     serial, --workers=N threads (--chaos=PLAN), or socket rank 0
//   search     --seed --jumble --cross --final-cross --adaptive
//              --checkpoint --checkpoint-keep --resume
//   output     --log-level --trace-out; the canonical result file
//
// Every rank of a deployment builds the same Problem from the same flags,
// like the paper's PVM processes each loading the alignment.
#pragma once

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/rates.hpp"
#include "model/submodel.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "parallel/socket_cluster.hpp"
#include "search/runner.hpp"
#include "search/search.hpp"
#include "seq/alignment.hpp"
#include "util/cli.hpp"

namespace fdml {

/// A flag or flag combination the launcher refuses; front-ends print the
/// message and exit 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// --log-level=debug|info|warn|error|off, and --trace-out turns the tracer
/// on. Throws UsageError on a bad level.
void apply_output_flags(const CliArgs& args);

/// Transport flags -> options for either side of a socket run.
SocketRunOptions socket_options_from_flags(const CliArgs& args);

/// True for --transport=socket. Throws UsageError on an unknown transport,
/// or on socket without --port and --fabric-size.
bool socket_transport(const CliArgs& args);

/// True when this process is a non-master rank of a socket run.
bool is_peer_rank(const CliArgs& args);

/// True when the flags name an input (a positional file, --input, --taxa).
bool has_problem(const CliArgs& args);

/// The data and model every rank builds. Not movable: runners keep
/// references into `data`.
struct Problem {
  Problem(Alignment alignment, double tstv, RateModel rates);
  Problem(const Problem&) = delete;
  Problem& operator=(const Problem&) = delete;

  Alignment alignment;
  PatternAlignment data;
  SubstModel model;
  RateModel rates;
};

/// Throws UsageError when no input is named or synthetic data lacks
/// --taxa or --sites, and std::runtime_error when the file cannot be read.
std::unique_ptr<const Problem> load_problem(const CliArgs& args);

/// Search flags -> options. Throws UsageError for --checkpoint/--resume
/// with --jumble>1 or --bootstrap (every ordering would share one
/// checkpoint; bootstrap never writes one) and for --bootstrap over
/// --transport=socket.
SearchOptions search_options_from_flags(const CliArgs& args);

/// Runs what the flags ask for on `runner`, with `options` bound to `data`'s
/// fingerprint: --resume continues the newest valid checkpoint generation,
/// else --jumble orderings (default 1). Throws std::runtime_error when
/// --resume finds no usable checkpoint.
JumbleResult run_search(const CliArgs& args, const PatternAlignment& data,
                        SearchOptions options, TaskRunner& runner);

/// A non-master rank: runs its role loop until the fabric shuts down,
/// prints one summary line, and writes `<trace-out>.rank<R>` when
/// --trace-out is set. Returns the process exit code.
int run_peer_rank(const CliArgs& args, const Problem& problem);

/// Rank 0's runner: a SocketCluster hub for --transport=socket, an
/// InProcessCluster for --workers=N (optionally under --chaos), otherwise
/// a SerialTaskRunner. `problem` must outlive it.
class Deployment {
 public:
  Deployment(const CliArgs& args, const Problem& problem);
  ~Deployment();

  /// Socket runs wait (--connect-timeout-ms) for every rank to announce;
  /// false when one never did. Other runners are ready at once.
  bool wait_ready();
  TaskRunner& runner();
  /// Drains the cluster so its statistics are final. Idempotent.
  void shutdown();
  /// Monitor report, fabric traffic, chaos totals and degradation counts.
  /// Call after shutdown().
  void print_summary() const;

 private:
  std::chrono::milliseconds connect_timeout_;
  std::unique_ptr<SerialTaskRunner> serial_;
  std::unique_ptr<InProcessCluster> cluster_;
  std::unique_ptr<SocketCluster> socket_;
};

/// The canonical result file: Newick at precision 10, then "lnL %.6f".
/// Runs that must agree are compared byte for byte on it.
bool write_result_file(const std::string& path, const std::string& newick,
                       const std::vector<std::string>& names,
                       double log_likelihood);

/// Writes `log` as a Chrome trace.
bool write_trace_file(const std::string& path, const obs::TraceLog& log);
/// Stops the live tracer and writes everything it recorded.
bool write_trace_file(const std::string& path);

}  // namespace fdml

// fastdnaml++ — the command-line program, in the spirit of the original
// fastDNAml interface: PHYLIP alignment in, maximum-likelihood tree out,
// with jumbles, bootstrap, rate categories, rearrangement control, and the
// parallel runtime behind a flag. Flags become a deployment through the
// launcher (parallel/launch.hpp); this file only searches and reports.
//
//   fastdnamlpp alignment.phy                         # serial, defaults
//   fastdnamlpp alignment.phy --jumble=10 --seed=3    # 10 addition orders
//   fastdnamlpp alignment.phy --workers=8             # parallel cluster
//   fastdnamlpp alignment.phy --bootstrap=100         # bootstrap supports
//   fastdnamlpp alignment.phy --tstv=2.0 --cross=5 --gamma=0.5 --categories=4
//   fastdnamlpp alignment.phy --out=best.nwk --svg=compare.svg
//   fastdnamlpp --taxa=20 --sites=600 --workers=4
//       --chaos="chaos-plan v1 seed=7 drop=0.05 delay=0.2"
//   fastdnamlpp --taxa=12 --sites=300 --workers=4 --trace-out=run.json
//       --sim-trace-out=sim.json --sim-procs=7
#include <csignal>
#include <cstdio>
#include <fstream>

#include "fdml.hpp"
#include "parallel/launch.hpp"
#include "util/simd.hpp"

namespace {

using namespace fdml;

// SIGINT/SIGTERM ask the run to stop at the next checkpoint boundary; the
// search throws SearchInterrupted after that checkpoint is durably
// committed, so a ^C'd run is always resumable from its last completed step.
volatile std::sig_atomic_t g_stop_signal = 0;

extern "C" void handle_stop_signal(int signal_number) {
  g_stop_signal = signal_number;
}

void usage(const char* program) {
  std::printf(
      "usage: %s ALIGNMENT.phy [options]\n"
      "       %s --taxa=N --sites=M [options]   (synthetic paper-like data)\n"
      "  --input=FILE      PHYLIP alignment (same as the positional argument)\n"
      "  --taxa=N --sites=M  simulate a paper-like alignment (seed 4242)\n"
      "  --seed=N          random seed for taxon addition order (default 1)\n"
      "  --jumble=N        number of random addition orders (default 1)\n"
      "  --bootstrap=N     bootstrap replicates instead of a plain search\n"
      "  --tstv=R          F84 transition/transversion ratio (default 2.0)\n"
      "  --gamma=ALPHA     discrete-gamma rate heterogeneity (off by default)\n"
      "  --categories=N    gamma categories (default 4)\n"
      "  --cross=K         vertices crossed in rearrangements (default 1)\n"
      "  --final-cross=K   final-pass setting (default = --cross)\n"
      "  --adaptive=K      escalate stalled rearrangements up to K\n"
      "  --workers=N       run the parallel cluster with N worker threads\n"
      "  --chaos=PLAN      fault-inject the workers (\"chaos-plan v1 ...\")\n"
      "  --timeout-ms=T    worker fault-tolerance timeout (default 30000)\n"
      "  --transport=T     thread (default) or socket (multi-process TCP;\n"
      "                    launch one process per rank, see\n"
      "                    scripts/launch_cluster.sh)\n"
      "  --rank=N          socket mode: this process's rank (0 = master)\n"
      "  --port=P          socket mode: hub TCP port\n"
      "  --host=H          socket mode: hub address (default 127.0.0.1)\n"
      "  --fabric-size=S   socket mode: total process count\n"
      "  --connect-timeout-ms=T  socket rendezvous budget (default 15000)\n"
      "  --reconnect       socket peers redial a lost hub connection\n"
      "  --reconnect-budget-ms=T  redial budget per outage (default 15000)\n"
      "  --heartbeat-ms=T  foreman pings silent workers every T ms (0 = off)\n"
      "  --telemetry-ms=T  ranks ship metric deltas every T ms (0 = off)\n"
      "  --checkpoint=FILE write a restart checkpoint after each addition\n"
      "  --checkpoint-keep=K  checkpoint generations retained (default 3)\n"
      "  --resume=FILE     continue an interrupted run from its checkpoint\n"
      "                    (rolls back to the newest valid generation);\n"
      "                    neither applies to --jumble>1 or --bootstrap\n"
      "  --out=FILE        write the best tree (Newick, then \"lnL ...\")\n"
      "  --svg=FILE        write a comparison SVG across jumbles\n"
      "  --trace-out=FILE  write a Chrome trace of the run (chrome://tracing;\n"
      "                    feed it to trace_report for utilization tables)\n"
      "  --sim-trace-out=FILE  replay the search through the cluster\n"
      "                    simulator and write its virtual-time trace\n"
      "  --sim-procs=N     simulated processor count (default 7)\n"
      "  --log-level=L     debug|info|warn|error|off (default warn)\n"
      "  --quiet           suppress the ASCII tree\n"
      "  --version         print version and SIMD kernel backend info\n",
      program, program);
}

void print_version() {
  std::printf("fastdnaml++ (fastDNAml reproduction)\n");
  std::printf("simd backend: %s (active), tier: %s (active)\n",
              simd::backend_name(simd::active_backend()),
              simd::tier_name(simd::active_tier()));
  std::printf("simd compiled:");
  for (const simd::Backend b : simd::compiled_backends()) {
    std::printf(" %s%s", simd::backend_name(b),
                simd::cpu_supports(b) ? "" : " (unsupported on this cpu)");
  }
  std::printf("\ntiers compiled:");
  for (const simd::Tier t : simd::compiled_tiers()) {
    std::printf(" %s", simd::tier_name(t));
  }
  std::printf("\n");
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int run_bootstrap_mode(const CliArgs& args, const Problem& problem,
                       const SearchOptions& options) {
  BootstrapOptions boot;
  boot.replicates = static_cast<int>(args.get_int("bootstrap", 100));
  boot.seed = options.seed;
  boot.search = options;
  std::printf("bootstrap: %d replicates...\n", boot.replicates);
  const BootstrapResult result =
      run_bootstrap(problem.alignment, problem.model, problem.rates, boot);
  AsciiOptions ascii;
  ascii.show_support = true;
  std::printf("\nMajority-rule bootstrap consensus "
              "(labels = %% of replicates):\n%s\n",
              render_ascii(result.consensus, ascii).c_str());
  if (args.has("out") &&
      !write_text(args.get("out", ""), to_newick(result.consensus) + "\n")) {
    return 1;
  }
  return 0;
}

/// Replays the recorded search through the discrete-event cluster and
/// writes the same Chrome-trace vocabulary with virtual timestamps.
bool write_sim_trace(const CliArgs& args, const SearchTrace& trace) {
  const std::string path = args.get("sim-trace-out", "");
  obs::TraceLog sim_log;
  SimClusterConfig config;
  config.processors = static_cast<int>(args.get_int("sim-procs", 7));
  config.trace = &sim_log;
  const SimResult sim = simulate_trace(trace, config);
  if (!write_trace_file(path, sim_log)) return false;
  std::printf("simulated %d procs: %.3fs virtual wall, utilization %.2f\n",
              config.processors, sim.wall_seconds, sim.worker_utilization);
  return true;
}

int run(const CliArgs& args) {
  apply_output_flags(args);
  const std::unique_ptr<const Problem> problem = load_problem(args);
  const PatternAlignment& data = problem->data;
  std::printf("fastdnaml++ | %zu taxa x %zu sites -> %zu patterns\n",
              data.num_taxa(), problem->alignment.num_sites(),
              data.num_patterns());
  std::printf("model: %s, ts/tv=%.2f, rates: %s\n", problem->model.name().c_str(),
              problem->model.tstv_ratio(), problem->rates.name().c_str());

  SearchOptions options = search_options_from_flags(args);
  if (is_peer_rank(args)) return run_peer_rank(args, *problem);
  if (args.has("bootstrap")) return run_bootstrap_mode(args, *problem, options);

  Deployment deployment(args, *problem);
  if (!deployment.wait_ready()) return 1;
  options.stop_requested = [] { return g_stop_signal != 0; };
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  Timer timer;
  JumbleResult jumbled;
  try {
    jumbled = run_search(args, data, options, deployment.runner());
  } catch (const SearchInterrupted& interrupted) {
    std::printf("\ninterrupted by signal %d; run is resumable at checkpoint "
                "generation %llu (--resume=%s)\n",
                static_cast<int>(g_stop_signal),
                static_cast<unsigned long long>(interrupted.generation()),
                args.get("checkpoint", args.get("resume", "")).c_str());
    return 130;
  }
  const double wall = timer.seconds();
  deployment.shutdown();  // drain the peers; final spans and stats are stable

  const SearchResult& best = jumbled.runs[jumbled.best_index];
  std::printf("\n%zu ordering(s), %.1fs: best ln L = %.4f "
              "(%zu trees evaluated in the best run)\n",
              jumbled.runs.size(), wall, best.best_log_likelihood,
              best.trees_evaluated);
  for (std::size_t k = 0; k < jumbled.runs.size(); ++k) {
    std::printf("  order %2zu: ln L = %.4f%s\n", k,
                jumbled.runs[k].best_log_likelihood,
                k == jumbled.best_index ? "  <- best" : "");
  }
  const Tree tree = tree_from_newick(best.best_newick, data.names());
  if (!args.get_bool("quiet")) {
    GeneralTree display = GeneralTree::from_tree(tree, data.names());
    display.canonicalize();
    std::printf("\n%s\n", render_ascii(display).c_str());
  }
  std::printf("Newick: %s\n", to_newick(tree, data.names(), 6).c_str());
  deployment.print_summary();

  bool ok = true;
  if (args.has("out")) {
    ok &= write_result_file(args.get("out", ""), best.best_newick, data.names(),
                            best.best_log_likelihood);
  }
  if (args.has("svg") && jumbled.runs.size() > 1) {
    std::vector<GeneralTree> panels;
    std::vector<std::string> titles;
    for (std::size_t k = 0; k < jumbled.runs.size(); ++k) {
      panels.push_back(GeneralTree::from_tree(
          tree_from_newick(jumbled.runs[k].best_newick, data.names()),
          data.names()));
      titles.push_back("order " + std::to_string(k));
    }
    ok &= write_text(args.get("svg", ""),
                     render_comparison_svg(panels, {data.names().front()}, titles));
  }
  if (args.has("trace-out")) ok &= write_trace_file(args.get("trace-out", ""));
  if (args.has("sim-trace-out")) ok &= write_sim_trace(args, best.trace);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("version")) {
    print_version();
    return 0;
  }
  if (!has_problem(args)) {
    usage(argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const UsageError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

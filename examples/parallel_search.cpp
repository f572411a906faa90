// Parallel search, as an API demo: the paper's master/foreman/worker/monitor
// layout stood up in-process with InProcessCluster, a StepwiseSearch run on
// top of it, and the monitor's instrumentation read back afterwards.
//
//   ./parallel_search
//
// For transports, chaos plans, checkpoints and traces use the full program:
// `fastdnamlpp --taxa=20 --sites=600 --workers=4 ...` (see its --help).
#include <cstdio>

#include "fdml.hpp"

int main() {
  using namespace fdml;
  const Alignment alignment = make_paper_like_dataset(16, 400, 4242);
  const PatternAlignment data(alignment);
  const SubstModel model = SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);

  ClusterOptions options;
  options.num_workers = 4;
  InProcessCluster cluster(data, model, RateModel::uniform(), options);
  SearchOptions search;
  search.seed = 3;
  Timer timer;
  const SearchResult result = StepwiseSearch(data, search).run(cluster.runner());
  const double wall = timer.seconds();
  cluster.shutdown();  // joins the role threads; the report is now final

  std::printf("best ln L = %.4f after %zu candidate trees in %.2fs\n",
              result.best_log_likelihood, result.trees_evaluated, wall);
  const MonitorReport report = cluster.monitor_report();
  double slack = 0.0;
  for (double s : report.round_slack_seconds) slack += s;
  std::printf("monitor: %llu rounds (barriers), %llu tasks, %.2fs worker CPU, "
              "%.4fs total barrier slack\n",
              static_cast<unsigned long long>(report.rounds),
              static_cast<unsigned long long>(report.completions),
              report.total_worker_cpu_seconds, slack);
  for (const auto& [worker, count] : report.tasks_per_worker) {
    std::printf("  worker %d: %llu tasks\n", worker,
                static_cast<unsigned long long>(count));
  }
  std::printf("Newick: %s\n", result.best_newick.c_str());
  return 0;
}

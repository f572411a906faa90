// e2e_bench — the end-to-end search benchmark's measuring binary. run.py
// builds it, generates the inputs and calls it; see README.md.
//
//   e2e_bench list
//       the workload names, one a line
//   e2e_bench spec --workload=W
//       the workload's input shape as JSON (run.py generates from it)
//   e2e_bench gen --taxa=N --sites=N --seed=S --out=F
//       writes make_paper_like_dataset(N, sites, S) as PHYLIP
//   e2e_bench run --workload=W --inputs=F1,F2 --seeds=S1,S2 --seconds=T
//                 --trace=0|1 --stored-refs=D --refdir=D [--record=F]
//                 [--trace-out=F]
//       measures; the last stdout line is the result JSON
//   e2e_bench refs --workload=W --inputs=F1,F2 --seeds=S1,S2 --out-dir=D
//       computes the serial references of the inputs into D (make_refs.py)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "likelihood/engine.hpp"
#include "model/simulate.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "seq/phylip.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace fdml;
using namespace e2e;

/// Set-up is repeated this many times per run (spread over the instances)
/// and reported as a median: one set-up takes milliseconds.
constexpr int kSetupSamples = 12;

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream in(text);
  for (std::string part; std::getline(in, part, ',');) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// Restarts the kernel's peak-RSS tracking so the next read covers one
/// search, not the process lifetime (a no-op where the kernel lacks it).
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string fmt(double value) {
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", std::isfinite(value) ? value : 0.0);
  return text;
}

std::string host_stamp(const Problem& problem) {
  const LikelihoodEngine engine(problem.data, problem.model, problem.rates);
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd_backend\": \"" << simd::backend_name(simd::active_backend())
      << "\", \"kernel_backend\": \"" << engine.counters().simd_backend
      << "\", \"simd_tier\": \"" << simd::tier_name(simd::active_tier())
      << "\", \"build_type\": \"" << E2E_BUILD_TYPE << "\", \"compiler\": \""
      << json_escape(E2E_COMPILER) << "\"}";
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + fmt(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

struct Outcome {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void record(const std::string& reason) {
    ++attempted;
    if (!reason.empty()) {
      ++failed;
      failures.push_back(reason);
      std::printf("FAIL %s\n", reason.c_str());
    }
  }
};

/// An instance's reference and where it came from.
struct ReferenceSlot {
  std::uint64_t seed = 0;
  std::uint64_t input_digest = 0;
  /// This checkout's file of adopted references for the instance's key.
  std::string cache_path;
  std::optional<Reference> reference;
  /// True unless the reference is one stored with the benchmark.
  bool adopted = false;
};

/// Computes serial answers for `problems`, three at a time (untimed).
std::vector<Reference> compute_references(
    const WorkloadSpec& spec, const std::vector<const Problem*>& problems,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<Reference> out;
  const std::size_t lanes = std::max(
      1u, std::min(3u, std::thread::hardware_concurrency()));
  for (std::size_t start = 0; start < problems.size(); start += lanes) {
    const std::size_t stop = std::min(problems.size(), start + lanes);
    std::vector<std::future<Answer>> jobs;
    for (std::size_t i = start; i < stop; ++i) {
      jobs.push_back(std::async(std::launch::async, [&, i] {
        return serial_answer(spec, *problems[i], seeds[i]);
      }));
    }
    for (std::size_t i = start; i < stop; ++i) {
      out.push_back(reference_of(jobs[i - start].get(), seeds[i], *problems[i]));
    }
  }
  return out;
}

/// Finds each instance's reference: first among the references stored with
/// the benchmark (`stored_dir`: answers of the program they were made from,
/// see make_refs.py), then among those this checkout adopted earlier
/// (`refdir`). An instance with neither adopts this build's serial answer:
/// the parallel workloads compute it now, and for the serial workload its
/// own first search is that answer (timed_search adopts it). An adopted
/// reference only checks runners of one build against each other, so every
/// adoption is reported.
std::vector<ReferenceSlot> ensure_references(
    const WorkloadSpec& spec, const std::vector<const Problem*>& problems,
    const std::vector<std::uint64_t>& seeds, const std::string& stored_dir,
    const std::string& refdir) {
  std::vector<ReferenceSlot> slots(problems.size());
  std::vector<const Problem*> missing;
  std::vector<std::uint64_t> missing_seeds;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const std::string key = answer_key(spec, *problems[i]);
    ReferenceSlot& slot = slots[i];
    slot.seed = seeds[i];
    slot.input_digest = problems[i]->input_digest;
    slot.cache_path = refdir + "/" + key + ".txt";
    slot.reference = find_reference(load_references(stored_dir + "/" + key + ".txt"),
                                    slot.seed, slot.input_digest);
    if (!slot.reference) {
      slot.adopted = true;
      slot.reference = find_reference(load_references(slot.cache_path),
                                       slot.seed, slot.input_digest);
    }
    if (slot.adopted) {
      char digest[17];
      std::snprintf(digest, sizeof(digest), "%016" PRIx64, slot.input_digest);
      std::printf("reference %s seed %" PRIu64 " input %s: no stored reference; "
                  "adopted this build's serial answer, so runners are checked "
                  "only against each other\n",
                  key.c_str(), slot.seed, digest);
    }
    if (!slot.reference && spec.runner != RunnerKind::kSerial) {
      missing.push_back(problems[i]);
      missing_seeds.push_back(seeds[i]);
    }
  }
  const std::vector<Reference> computed =
      compute_references(spec, missing, missing_seeds);
  for (ReferenceSlot& slot : slots) {
    for (const Reference& r : computed) {
      if (!slot.reference && r.seed == slot.seed &&
          r.input_digest == slot.input_digest) {
        slot.reference = r;
        append_reference(slot.cache_path, r);
      }
    }
  }
  return slots;
}

/// The `run` mode's arguments.
struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  std::vector<std::string> inputs;
  std::vector<std::uint64_t> seeds;
  std::string seeds_text;
  double seconds = 1.0;
  /// References stored with the benchmark, and this checkout's adopted ones.
  std::string stored_dir;
  std::string refdir;
  std::string record;
  std::string trace_out;
};

/// Prints the metric lines, writes the record file and prints the result
/// line (last line of stdout).
int finish(const RunArgs& args, const std::string& host,
           const std::vector<Metric>& metrics, const Outcome& outcome,
           const LayerReport& layers, int adopted) {
  const std::vector<TimeRow>& table = layers.table;
  std::printf("host %s\n", host.c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  if (!args.record.empty()) {
    std::ofstream out(args.record);
    out << "{\"workload\": \"" << args.spec->name << "\", \"seeds\": \""
        << args.seeds_text << "\", \"host\": " << host << ", \"correct\": "
        << (correct ? "true" : "false") << ", \"attempted\": "
        << outcome.attempted << ", \"failed\": " << outcome.failed
        << ", \"adopted_references\": " << adopted << ", \"failures\": [";
    for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
      out << (i ? ", " : "") << "\"" << json_escape(outcome.failures[i]) << "\"";
    }
    out << "], \"traced_search_s\": " << fmt(layers.search_s) << ", \"table\": [";
    for (std::size_t i = 0; i < table.size(); ++i) {
      out << (i ? ", " : "") << "{\"row\": \"" << json_escape(table[i].label)
          << "\", \"s\": " << fmt(table[i].seconds) << "}";
    }
    out << "], \"metrics\": " << metrics_json(metrics) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted, outcome.failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

int adopted_count(const std::vector<ReferenceSlot>& slots) {
  return static_cast<int>(std::count_if(slots.begin(), slots.end(),
                                        [](const ReferenceSlot& s) { return s.adopted; }));
}

/// One timed set-up: load the input, then build the runner until ready.
struct SetupSample {
  std::unique_ptr<Problem> problem;
  std::unique_ptr<Deployment> deployment;
  double load_s = 0.0;
  double total_s = 0.0;
};

SetupSample set_up(const WorkloadSpec& spec, const std::string& input,
                   RecvWaitMeter* meter = nullptr) {
  SetupSample sample;
  Timer timer;
  sample.problem = std::make_unique<Problem>(Problem::load(input));
  sample.load_s = timer.seconds();
  sample.deployment = std::make_unique<Deployment>(spec, *sample.problem, meter);
  sample.total_s = timer.seconds();
  return sample;
}

void tear_down(SetupSample& setup) {
  setup.deployment.reset();
  setup.problem.reset();
}

/// Timings of every set-up in a run.
struct SetupTimes {
  std::vector<double> load_s;
  std::vector<double> total_s;

  void add(double load, double total) {
    load_s.push_back(load);
    total_s.push_back(total);
  }
  void add(const SetupSample& sample) { add(sample.load_s, sample.total_s); }
  std::vector<double> runner_s() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < total_s.size(); ++i) {
      out.push_back(total_s[i] - load_s[i]);
    }
    return out;
  }
};

/// References for `inputs` (loaded once, untimed) and the host stamp.
std::vector<ReferenceSlot> references_for(
    const WorkloadSpec& spec, const std::vector<std::string>& inputs,
    const std::vector<std::uint64_t>& seeds, const std::string& stored_dir,
    const std::string& refdir, std::string& host) {
  std::vector<Problem> loaded;
  loaded.reserve(inputs.size());
  std::vector<const Problem*> problems;
  for (const std::string& input : inputs) {
    loaded.push_back(Problem::load(input));
    problems.push_back(&loaded.back());
  }
  host = host_stamp(loaded.front());
  return ensure_references(spec, problems, seeds, stored_dir, refdir);
}

/// One search on a ready deployment, checked against its reference.
struct SearchSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t wire_bytes = 0;
  std::string failure;
  Answer answer;
};

SearchSample timed_search(const WorkloadSpec& spec, const SetupSample& setup,
                          std::uint64_t seed, ReferenceSlot& slot) {
  SearchSample sample;
  Deployment& deployment = *setup.deployment;
  TaskRunner& runner = deployment.runner();
  const FabricTotals before = deployment.totals();
  reset_peak_rss();
  const double cpu0 = process_cpu_seconds();
  Timer timer;
  try {
    const SearchResult result =
        StepwiseSearch(setup.problem->data, search_options(spec, seed)).run(runner);
    sample.wall_s = timer.seconds();
    sample.cpu_s = process_cpu_seconds() - cpu0;
    sample.rss_mb = peak_rss_mb();
    sample.answer = {result.best_newick, result.best_log_likelihood,
                     result.trees_evaluated};
    sample.tasks = result.trees_evaluated;
    const FabricTotals after = deployment.totals();
    if (spec.runner == RunnerKind::kSerial) {
      // No fabric: what the same task stream would put on one (the
      // runner's serialized task + result sizes).
      for (const RoundTrace& round : result.trace.rounds) {
        for (std::uint64_t bytes : round.task_bytes) sample.wire_bytes += bytes;
      }
    } else {
      sample.wire_bytes = after.bytes - before.bytes;
    }
    const bool adopting = !slot.reference.has_value();
    if (adopting) slot.reference = reference_of(sample.answer, seed, *setup.problem);
    sample.failure = check_answer(sample.answer, *slot.reference, *setup.problem);
    if (sample.failure.empty()) sample.failure = check_health(before, after);
    if (adopting && sample.failure.empty()) {
      append_reference(slot.cache_path, *slot.reference);
    } else if (adopting) {
      slot.reference.reset();
    }
  } catch (const std::exception& e) {
    sample.wall_s = timer.seconds();
    sample.failure = std::string("search threw: ") + e.what();
  }
  return sample;
}

/// One set-up and search in a child process, so that every search starts
/// from a fresh heap and thread set, as a user's run does. (A long-lived
/// process keeps per-thread state of exited role threads, so in-process
/// repeats would see RSS grow from search to search.) The caller must be
/// single-threaded.
/// With `with_search` false the child only sets up and tears down (extra
/// set-up samples).
SearchSample isolated_search(const WorkloadSpec& spec, const std::string& input,
                             std::uint64_t seed, ReferenceSlot& slot,
                             SetupTimes& setups, bool with_search = true) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string out;
    try {
      SetupSample setup = set_up(spec, input);
      const SearchSample s =
          with_search ? timed_search(spec, setup, seed, slot) : SearchSample{};
      tear_down(setup);
      char line[256];
      std::snprintf(line, sizeof(line), "%.17g %.17g %.17g %.17g %.17g %" PRIu64
                    " %" PRIu64 "\n", setup.load_s, setup.total_s, s.wall_s,
                    s.cpu_s, s.rss_mb, s.tasks, s.wire_bytes);
      out = line + s.failure;
    } catch (const std::exception& e) {
      out = std::string("0 0 0 0 0 0 0\nset-up threw: ") + e.what();
    }
    for (std::size_t done = 0; done < out.size();) {
      const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) ::_exit(1);
      done += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string in;
  char buffer[4096];
  for (ssize_t n; (n = ::read(fds[0], buffer, sizeof(buffer))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    in.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  SearchSample sample;
  double load_s = 0.0;
  double total_s = 0.0;
  std::istringstream parse(in);
  const bool parsed =
      static_cast<bool>(parse >> load_s >> total_s >> sample.wall_s >>
                        sample.cpu_s >> sample.rss_mb >> sample.tasks >>
                        sample.wire_bytes);
  if (parsed) {
    parse.ignore(1);
    std::getline(parse, sample.failure, '\0');
  }
  if (!parsed || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    sample.failure = "search process died (status " + std::to_string(status) + ")";
  } else if (total_s > 0.0) {
    setups.add(load_s, total_s);
  }
  // The child adopted (and cached) the serial answer as the reference.
  if (!slot.reference.has_value()) {
    slot.reference = find_reference(load_references(slot.cache_path), slot.seed,
                                    slot.input_digest);
  }
  return sample;
}

int run_measure(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  const std::vector<std::string>& inputs = args.inputs;
  const std::vector<std::uint64_t>& seeds = args.seeds;
  std::string host;
  std::vector<ReferenceSlot> references =
      references_for(spec, inputs, seeds, args.stored_dir, args.refdir, host);

  // Every search gets a fresh process and set-up, as a user's run would, and
  // is timed from StepwiseSearch::run entry to return.
  Outcome outcome;
  SetupTimes setups;
  std::vector<std::vector<SearchSample>> samples(inputs.size());
  Timer clock;
  do {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      SearchSample sample =
          isolated_search(spec, inputs[i], seeds[i], references[i], setups);
      std::printf("search input=%zu wall_s=%.4f cpu_s=%.4f rss_mb=%.2f tasks=%" PRIu64 "\n",
                  i, sample.wall_s, sample.cpu_s, sample.rss_mb, sample.tasks);
      outcome.record(sample.failure);
      // A failed search is missing, not slow: it counts in `failed` only.
      if (sample.failure.empty()) samples[i].push_back(std::move(sample));
    }
  } while (clock.seconds() < args.seconds);
  for (std::size_t i = 0;
       i < kSetupSamples && setups.total_s.size() < kSetupSamples; ++i) {
    const std::size_t k = i % inputs.size();
    isolated_search(spec, inputs[k], seeds[k], references[k], setups, false);
  }

  // Per input: median over its repeats; across inputs: the mean, so each
  // alignment weighs the same however many repeats fit in the run.
  double search_sum = 0.0;
  double cpu_sum = 0.0;
  double rss_sum = 0.0;
  double tasks_sum = 0.0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_tasks = 0;
  double measured = 0.0;
  for (const std::vector<SearchSample>& runs : samples) {
    if (runs.empty()) continue;
    measured += 1.0;
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> rss;
    for (const SearchSample& s : runs) {
      wall.push_back(s.wall_s);
      cpu.push_back(s.cpu_s);
      rss.push_back(s.rss_mb);
      wire_bytes += s.wire_bytes;
      wire_tasks += s.tasks;
    }
    search_sum += median(wall);
    cpu_sum += median(cpu);
    rss_sum += median(rss);
    tasks_sum += static_cast<double>(runs.front().tasks);
  }
  const double n = std::max(measured, 1.0);
  const std::vector<Metric> metrics = {
      {"search_s", search_sum / n, "s"},
      {"setup_s", median(setups.total_s), "s"},
      {"trees_per_s", search_sum > 0.0 ? tasks_sum / search_sum : 0.0, "1/s"},
      {"cpu_s", cpu_sum / n, "s"},
      {"peak_rss_mb", rss_sum / n, "MB"},
      {"wire_bytes_per_task",
       wire_tasks > 0 ? static_cast<double>(wire_bytes) / static_cast<double>(wire_tasks)
                      : 0.0,
       "B/task"},
  };
  return finish(args, host, metrics, outcome, LayerReport{},
                adopted_count(references));
}

/// A search with the round recorder, the metered worker transports (thread
/// backend) and the obs tracer on, on a deployment of its own. The
/// deployment is torn down when the search returns, so that the process is
/// single-threaded again for the next forked search; the recorder keeps
/// what the replay needs.
struct TracedSearch {
  RecvWaitMeter meter;  // outlives the deployment whose transports it wraps
  SetupSample setup;
  int workers = 1;
  std::unique_ptr<RoundRecorder> recorder;
  SearchResult result;
  FabricTotals fabric;  // deltas over the search
  double recv_wait_s = 0.0;
  double batch_fill_sum = 0.0;
  std::uint64_t batch_fill_count = 0;
  obs::TraceLog log;
  std::string failure;
};

/// Ring size of the obs tracer. The busiest thread of a traced
/// addition-socket2 search records about 40k events. The tracer keeps a ring
/// for every thread that ever named itself, so this bounds the traced run's
/// memory too.
constexpr std::size_t kTraceEventsPerThread = 1 << 16;

std::unique_ptr<TracedSearch> traced_search(const WorkloadSpec& spec,
                                            const std::string& input,
                                            std::uint64_t seed,
                                            const ReferenceSlot& slot) {
  auto traced = std::make_unique<TracedSearch>();
  traced->setup = set_up(spec, input,
                         spec.runner == RunnerKind::kThread ? &traced->meter : nullptr);
  Deployment& deployment = *traced->setup.deployment;
  traced->recorder = std::make_unique<RoundRecorder>(deployment.runner());
  obs::Histogram& fill = batch_fill_histogram();
  const double fill_sum0 = fill.sum();
  const std::uint64_t fill_count0 = fill.count();
  const FabricTotals before = deployment.totals();
  const double wait0 = traced->meter.total_seconds();
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.enable(kTraceEventsPerThread);
  tracer.set_thread_name("bench-master");

  traced->recorder->begin();
  try {
    traced->result = StepwiseSearch(traced->setup.problem->data,
                                    search_options(spec, seed))
                         .run(*traced->recorder);
  } catch (const std::exception& e) {
    traced->failure = std::string("traced search threw: ") + e.what();
  }
  traced->recorder->end();
  traced->log = tracer.drain_and_reset();
  tracer.disable();

  const FabricTotals after = deployment.totals();
  traced->fabric = {after.messages - before.messages, after.bytes - before.bytes,
                    after.requeues - before.requeues,
                    after.fallbacks - before.fallbacks,
                    after.watchdog_trips - before.watchdog_trips};
  traced->recv_wait_s = traced->meter.total_seconds() - wait0;
  traced->batch_fill_sum = fill.sum() - fill_sum0;
  traced->batch_fill_count = fill.count() - fill_count0;

  if (traced->failure.empty() && !slot.reference.has_value()) {
    traced->failure = "no serial reference to check against";
  }
  if (traced->failure.empty()) {
    const SearchResult& r = traced->result;
    traced->failure = check_answer(
        {r.best_newick, r.best_log_likelihood, r.trees_evaluated},
        *slot.reference, *traced->setup.problem);
  }
  if (traced->failure.empty()) traced->failure = check_health(before, after);
  traced->workers = deployment.workers();
  traced->setup.deployment.reset();
  return traced;
}

/// The tracing overhead is the median of alternating untraced/traced search
/// pairs. Pairs run while they fit in three times --seconds (at most 90 s);
/// with fewer than kResolvedPairs the figure is reported as unresolved.
constexpr int kMaxOverheadPairs = 4;
constexpr int kResolvedPairs = 3;

int run_traced(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  const std::string& input = args.inputs.front();
  const std::uint64_t seed = args.seeds.front();
  std::string host;
  std::vector<ReferenceSlot> references = references_for(
      spec, {input}, {seed}, args.stored_dir, args.refdir, host);
  ReferenceSlot& reference = references.front();

  // Untraced searches and set-up samples run in child processes, as in
  // untraced runs; only the traced searches run in this process.
  Outcome outcome;
  SetupTimes setups;

  // Untraced/traced pairs, alternating which goes first; every search is
  // checked. The latest traced search that passed feeds the layer report.
  const double pair_budget_s = std::min(3.0 * args.seconds, 90.0);
  std::vector<double> untraced_s;
  std::vector<double> overheads;
  std::unique_ptr<TracedSearch> kept;
  Timer clock;
  for (int pair = 0; pair < kMaxOverheadPairs; ++pair) {
    if (pair > 0 && clock.seconds() * (pair + 1) / pair > pair_budget_s) break;
    SearchSample untraced;
    std::unique_ptr<TracedSearch> traced;
    auto run_untraced = [&] {
      untraced = isolated_search(spec, input, seed, reference, setups);
      outcome.record(untraced.failure);
    };
    auto run_traced_search = [&] {
      traced = traced_search(spec, input, seed, reference);
      outcome.record(traced->failure);
    };
    // The untraced search goes first in the first pair: on the serial
    // workload without a stored reference it adopts the one the traced
    // search is checked against.
    if (pair % 2 == 0) {
      run_untraced();
      run_traced_search();
    } else {
      run_traced_search();
      run_untraced();
    }
    if (untraced.failure.empty() && traced->failure.empty()) {
      untraced_s.push_back(untraced.wall_s);
      overheads.push_back(traced->recorder->search_s() / untraced.wall_s - 1.0);
    }
    if (traced->failure.empty() || !kept) kept = std::move(traced);
  }
  const int pairs = static_cast<int>(overheads.size());
  for (int i = 0; i < kSetupSamples && setups.total_s.size() < kSetupSamples; ++i) {
    isolated_search(spec, input, seed, reference, setups, false);
  }

  LiveObservation live;
  live.recorder = kept->recorder.get();
  live.final_newick = kept->result.best_newick;
  live.workers = kept->workers;
  live.fabric = kept->fabric;
  live.recv_wait_s = kept->recv_wait_s;
  live.batch_fill_sum = kept->batch_fill_sum;
  live.batch_fill_count = kept->batch_fill_count;
  // The serial runner evaluates a round as one batch; the workers batch what
  // their queue holds, which their mean edge-batch fill shows.
  live.replay_batch =
      spec.runner == RunnerKind::kSerial
          ? 0
          : static_cast<int>(std::clamp(
                std::lround(live.batch_fill_count > 0
                                ? live.batch_fill_sum /
                                      static_cast<double>(live.batch_fill_count)
                                : 1.0),
                1L, 16L));
  live.trace_overhead = median(overheads);
  live.overhead_pairs = pairs;
  live.load_s = median(setups.load_s);
  live.runner_s = median(setups.runner_s());
  live.patterns = kept->setup.problem->data.num_patterns();

  LayerReport report;
  obs::Tracer& tracer = obs::Tracer::instance();
  if (kept->failure.empty()) {
    kept->recorder->label(kept->result.trace);
    tracer.enable(kTraceEventsPerThread);
    report = measure_layers(*kept->setup.problem, live);
    if (report.replay_mismatches > 0) {
      outcome.record(std::to_string(report.replay_mismatches) +
                     " replayed round winner(s) differ from the live run");
    }
  }
  obs::TraceLog replay_log = tracer.drain_and_reset();
  tracer.disable();
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    obs::merge_trace_logs({kept->log, replay_log}).write_chrome(out);
  }

  std::printf("tracing overhead: median %+.1f%% over %d untraced/traced pair(s)%s\n",
              100.0 * live.trace_overhead, pairs,
              pairs < kResolvedPairs ? " (unresolved: too few pairs)" : "");
  std::printf("where the time goes (%s, traced search_s %.3f s, untraced median %.3f s)\n",
              spec.name.c_str(), report.search_s, median(untraced_s));
  for (const TimeRow& row : report.table) {
    std::printf("  %-48s %9.4f s %6.1f%%\n", row.label.c_str(), row.seconds,
                report.search_s > 0.0 ? 100.0 * row.seconds / report.search_s : 0.0);
  }
  return finish(args, host, report.metrics, outcome, report,
                adopted_count(references));
}

/// Computes and stores the serial references of `inputs` (one file per
/// answer key in `out_dir`, merged with the lines already there).
int make_references(const WorkloadSpec& spec, const std::vector<std::string>& inputs,
                    const std::vector<std::uint64_t>& seeds,
                    const std::string& out_dir) {
  std::vector<Problem> loaded;
  loaded.reserve(inputs.size());
  std::vector<const Problem*> problems;
  for (const std::string& input : inputs) {
    loaded.push_back(Problem::load(input));
    problems.push_back(&loaded.back());
  }
  const std::vector<Reference> computed = compute_references(spec, problems, seeds);
  std::map<std::string, std::vector<Reference>> files;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const std::string path = out_dir + "/" + answer_key(spec, *problems[i]) + ".txt";
    if (!files.count(path)) files[path] = load_references(path);
    std::vector<Reference>& lines = files[path];
    std::erase_if(lines, [&](const Reference& r) {
      return r.seed == computed[i].seed && r.input_digest == computed[i].input_digest;
    });
    lines.push_back(computed[i]);
  }
  for (auto& [path, lines] : files) {
    write_references(path, lines);
    std::printf("%s: %zu reference(s)\n", path.c_str(), lines.size());
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench list\n"
               "       e2e_bench spec --workload=W\n"
               "       e2e_bench gen --taxa=N --sites=N --seed=S --out=F\n"
               "       e2e_bench run --workload=W --inputs=F,.. --seeds=S,.. "
               "--seconds=T --trace=0|1 --stored-refs=D --refdir=D [--record=F] "
               "[--trace-out=F]\n"
               "       e2e_bench refs --workload=W --inputs=F,.. --seeds=S,.. "
               "--out-dir=D\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.positional().size() != 1) return usage();
  const std::string mode = args.positional().front();
  try {
    if (mode == "list") {
      for (const WorkloadSpec& spec : workloads()) std::printf("%s\n", spec.name.c_str());
      return 0;
    }
    if (mode == "gen") {
      const Alignment alignment = make_paper_like_dataset(
          static_cast<int>(args.get_int("taxa", 0)),
          static_cast<std::size_t>(args.get_int("sites", 0)),
          static_cast<std::uint64_t>(args.get_int("seed", 1)));
      write_phylip_file(args.get("out", ""), alignment);
      return 0;
    }
    const WorkloadSpec* spec = find_workload(args.get("workload", ""));
    if (spec == nullptr) {
      std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                   args.get("workload", "").c_str());
      return 2;
    }
    if (mode == "spec") {
      std::printf("{\"taxa\": %d, \"sites\": %zu, \"instances\": %d}\n",
                  spec->taxa, spec->sites, spec->instances);
      return 0;
    }
    RunArgs run;
    run.spec = spec;
    run.inputs = split(args.get("inputs", ""));
    run.seeds_text = args.get("seeds", "");
    for (const std::string& s : split(run.seeds_text)) {
      run.seeds.push_back(std::stoull(s));
    }
    if (run.inputs.empty() || run.inputs.size() != run.seeds.size()) return usage();
    if (mode == "refs") {
      const std::string out_dir = args.get("out-dir", "");
      if (out_dir.empty()) return usage();
      return make_references(*spec, run.inputs, run.seeds, out_dir);
    }
    if (mode != "run") return usage();
    run.seconds = args.get_double("seconds", 1.0);
    run.stored_dir = args.get("stored-refs", "");
    run.refdir = args.get("refdir", "");
    run.record = args.get("record", "");
    run.trace_out = args.get("trace-out", "");
    if (run.stored_dir.empty() || run.refdir.empty()) return usage();
    return args.get_int("trace", 0) != 0 ? run_traced(run) : run_measure(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}

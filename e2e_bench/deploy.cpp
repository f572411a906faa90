// Workloads, set-up (input -> runner ready for searches) and the
// correctness oracle of the end-to-end search benchmark.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "likelihood/engine.hpp"
#include "seq/phylip.hpp"
#include "tree/newick.hpp"
#include "util/fnv.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace e2e {

using namespace fdml;

// ---------------------------------------------------------------------------
// Workloads

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"rearrange-serial", 30, 800, RunnerKind::kSerial, 1, false, 6},
      {"rearrange-thread3", 30, 800, RunnerKind::kThread, 3, false, 6},
      {"addition-socket2", 100, 1000, RunnerKind::kSocket, 2, true, 1},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

SearchOptions search_options(const WorkloadSpec& spec, std::uint64_t seed) {
  SearchOptions options;
  options.seed = seed;
  if (spec.insertion_only) {
    options.rearrange_cross = 0;
    options.final_rearrange_cross = 0;
  }
  return options;
}

std::string answer_config(const WorkloadSpec& spec) {
  return spec.insertion_only ? "insertion-only" : "default-search";
}

// ---------------------------------------------------------------------------
// Set-up

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) throw std::runtime_error("cannot pick a loopback port");
  return ntohs(addr.sin_port);
}

}  // namespace

Problem Problem::load(const std::string& phylip_path) {
  const std::string text = read_file(phylip_path);
  PatternAlignment data(read_phylip_string(text));
  SubstModel model = SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  return Problem{std::move(data), std::move(model), RateModel::uniform(),
                 fnv1a64(text)};
}

// ---------------------------------------------------------------------------
// Thread backend: per-worker recv wait

class MeteredTransport final : public Transport {
 public:
  MeteredTransport(std::unique_ptr<Transport> inner, RecvWaitMeter& meter)
      : inner_(std::move(inner)), meter_(meter) {}

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }
  bool closed() const override { return inner_->closed(); }
  void send(int dest, MessageTag tag, std::vector<std::uint8_t> payload) override {
    inner_->send(dest, tag, std::move(payload));
  }
  std::optional<Message> recv() override {
    meter_.begin_wait(rank(), monotonic_ns());
    std::optional<Message> message = inner_->recv();
    meter_.end_wait(rank(), monotonic_ns());
    return message;
  }
  std::optional<Message> recv_for(std::chrono::milliseconds timeout) override {
    meter_.begin_wait(rank(), monotonic_ns());
    std::optional<Message> message = inner_->recv_for(timeout);
    meter_.end_wait(rank(), monotonic_ns());
    return message;
  }

 private:
  std::unique_ptr<Transport> inner_;
  RecvWaitMeter& meter_;
};

std::unique_ptr<Transport> RecvWaitMeter::wrap(std::unique_ptr<Transport> inner) {
  return std::make_unique<MeteredTransport>(std::move(inner), *this);
}

void RecvWaitMeter::begin_wait(int rank, std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.rank == rank) {
      slot.blocked_since_ns = now_ns;
      return;
    }
  }
  slots_.push_back({rank, 0, now_ns});
}

void RecvWaitMeter::end_wait(int rank, std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.rank == rank && slot.blocked_since_ns != 0) {
      slot.waited_ns += now_ns - slot.blocked_since_ns;
      slot.blocked_since_ns = 0;
    }
  }
}

double RecvWaitMeter::total_seconds() const {
  const std::uint64_t now = monotonic_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.waited_ns;
    if (slot.blocked_since_ns != 0) total += now - slot.blocked_since_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

// ---------------------------------------------------------------------------
// Deployment

Deployment::Deployment(const WorkloadSpec& spec, const Problem& problem,
                       RecvWaitMeter* meter)
    : workers_(spec.workers) {
  switch (spec.runner) {
    case RunnerKind::kSerial:
      serial_ = std::make_unique<SerialTaskRunner>(problem.data, problem.model,
                                                   problem.rates);
      break;
    case RunnerKind::kThread: {
      ClusterOptions options;
      options.num_workers = spec.workers;
      if (meter != nullptr) {
        options.wrap_worker_transport =
            [meter](int, std::unique_ptr<Transport> inner) {
              return meter->wrap(std::move(inner));
            };
      }
      cluster_ = std::make_unique<InProcessCluster>(problem.data, problem.model,
                                                    problem.rates, options);
      break;
    }
    case RunnerKind::kSocket: {
      const int size = kFirstWorkerRank + spec.workers;
      SocketRunOptions options;
      options.socket.size = size;
      options.socket.connect_timeout = std::chrono::milliseconds(10000);
      options.socket.connect_retry = std::chrono::milliseconds(20);
      options.master.metrics = &registry_;
      options.foreman.metrics = &registry_;
      // Another process may take the picked port before the hub binds it.
      for (int attempt = 0; socket_ == nullptr; ++attempt) {
        options.socket.port = pick_free_port();
        try {
          socket_ = std::make_unique<SocketCluster>(problem.data, problem.model,
                                                    problem.rates, options);
        } catch (const std::exception&) {
          if (attempt == 4) throw;
        }
      }
      // The role threads must be joined on every exit path.
      try {
        for (int rank = 1; rank < size; ++rank) {
          SocketRunOptions role = options;
          role.socket.rank = rank;
          roles_.emplace_back([&problem, role] {
            try {
              run_socket_role(problem.data, problem.model, problem.rates, role);
            } catch (const std::exception& e) {
              std::fprintf(stderr, "e2e_bench: socket rank %d: %s\n",
                           role.socket.rank, e.what());
            }
          });
        }
        if (!socket_->wait_ready(std::chrono::milliseconds(15000))) {
          throw std::runtime_error("socket fabric rendezvous timed out");
        }
      } catch (...) {
        shutdown();
        throw;
      }
      break;
    }
  }
}

Deployment::~Deployment() { shutdown(); }

void Deployment::shutdown() {
  if (socket_ != nullptr) socket_->shutdown();
  if (cluster_ != nullptr) cluster_->shutdown();
  for (std::thread& role : roles_) {
    if (role.joinable()) role.join();
  }
}

TaskRunner& Deployment::runner() {
  if (serial_ != nullptr) return *serial_;
  if (cluster_ != nullptr) return cluster_->runner();
  return socket_->runner();
}

FabricTotals Deployment::totals() const {
  FabricTotals totals;
  if (cluster_ != nullptr) {
    const MasterStats master = cluster_->master_stats();
    totals.messages = cluster_->fabric_messages();
    totals.bytes = cluster_->fabric_bytes();
    totals.requeues = cluster_->metrics_snapshot().counter("foreman.requeues");
    totals.fallbacks = master.serial_fallbacks;
    totals.watchdog_trips = master.watchdog_trips;
  } else if (socket_ != nullptr) {
    // Star topology: every byte on the wire crosses one of the hub's
    // connections, so the hub's two directions are the fabric's traffic.
    const SocketFabricStats fabric = socket_->fabric_stats();
    const MasterStats master = socket_->master_stats();
    totals.messages = fabric.frames_sent + fabric.frames_received;
    totals.bytes = fabric.bytes_sent + fabric.bytes_received;
    totals.requeues = registry_.snapshot().counter("foreman.requeues");
    totals.fallbacks = master.serial_fallbacks;
    totals.watchdog_trips = master.watchdog_trips;
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Oracle

namespace {

constexpr const char* kReferenceHeader =
    "# fdml-e2e-references 1: serial answers, one line per input\n"
    "# seed input-digest trees-evaluated lnl-bits newick-digest\n";

std::string format_reference(const Reference& r) {
  char line[128];
  std::snprintf(line, sizeof(line), "%llu %016llx %llu %016llx %016llx\n",
                static_cast<unsigned long long>(r.seed),
                static_cast<unsigned long long>(r.input_digest),
                static_cast<unsigned long long>(r.trees_evaluated),
                static_cast<unsigned long long>(r.lnl_bits),
                static_cast<unsigned long long>(r.newick_digest));
  return line;
}

}  // namespace

Reference reference_of(const Answer& answer, std::uint64_t seed,
                       const Problem& problem) {
  return {seed, problem.input_digest, answer.trees_evaluated,
          bits_of(answer.log_likelihood), fnv1a64(answer.newick)};
}

std::string answer_key(const WorkloadSpec& spec, const Problem& problem) {
  const LikelihoodEngine engine(problem.data, problem.model, problem.rates);
  return answer_config(spec) + "." + engine.counters().simd_backend + "." +
         simd::tier_name(simd::active_tier());
}

std::vector<Reference> load_references(const std::string& path) {
  std::vector<Reference> references;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string seed, digest, trees, lnl, newick;
    if (!(fields >> seed >> digest >> trees >> lnl >> newick)) continue;
    try {
      references.push_back({std::stoull(seed), std::stoull(digest, nullptr, 16),
                            std::stoull(trees), std::stoull(lnl, nullptr, 16),
                            std::stoull(newick, nullptr, 16)});
    } catch (const std::exception&) {
      // A malformed line is no reference; the input then adopts one.
    }
  }
  return references;
}

std::optional<Reference> find_reference(const std::vector<Reference>& references,
                                        std::uint64_t seed,
                                        std::uint64_t input_digest) {
  for (const Reference& r : references) {
    if (r.seed == seed && r.input_digest == input_digest) return r;
  }
  return std::nullopt;
}

void append_reference(const std::string& path, const Reference& reference) {
  const bool fresh = !std::ifstream(path).good();
  std::ofstream out(path, std::ios::app);
  if (fresh) out << kReferenceHeader;
  out << format_reference(reference);
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

void write_references(const std::string& path, std::vector<Reference> references) {
  std::sort(references.begin(), references.end(),
            [](const Reference& a, const Reference& b) {
              return a.seed != b.seed ? a.seed < b.seed
                                      : a.input_digest < b.input_digest;
            });
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << kReferenceHeader;
    for (const Reference& r : references) out << format_reference(r);
    if (!out.flush()) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp);
  }
}

Answer serial_answer(const WorkloadSpec& spec, const Problem& problem,
                     std::uint64_t seed) {
  SerialTaskRunner runner(problem.data, problem.model, problem.rates);
  const SearchResult result =
      StepwiseSearch(problem.data, search_options(spec, seed)).run(runner);
  return {result.best_newick, result.best_log_likelihood,
          result.trees_evaluated};
}

std::string check_answer(const Answer& got, const Reference& want,
                         const Problem& problem) {
  if (got.trees_evaluated != want.trees_evaluated) {
    return "trees_evaluated " + std::to_string(got.trees_evaluated) +
           " != reference " + std::to_string(want.trees_evaluated);
  }
  if (bits_of(got.log_likelihood) != want.lnl_bits) {
    double expected = 0.0;
    std::memcpy(&expected, &want.lnl_bits, sizeof(expected));
    char text[96];
    std::snprintf(text, sizeof(text), "lnL %.17g != reference %.17g",
                  got.log_likelihood, expected);
    return text;
  }
  if (fnv1a64(got.newick) != want.newick_digest) {
    return "final Newick differs from reference";
  }
  const Tree tree = tree_from_newick(got.newick, problem.data.names());
  LikelihoodEngine engine(problem.data, problem.model, problem.rates);
  engine.attach(tree);
  const double lnl = engine.log_likelihood();
  if (!(std::abs(lnl - got.log_likelihood) <=
        1e-6 * std::abs(got.log_likelihood))) {
    char text[96];
    std::snprintf(text, sizeof(text), "re-evaluated lnL %.17g vs reported %.17g",
                  lnl, got.log_likelihood);
    return text;
  }
  return "";
}

std::string check_health(const FabricTotals& before, const FabricTotals& after) {
  if (after.requeues != before.requeues) return "foreman requeued tasks";
  if (after.fallbacks != before.fallbacks) return "master fell back to serial";
  if (after.watchdog_trips != before.watchdog_trips) {
    return "master watchdog tripped";
  }
  return "";
}

}  // namespace e2e

// Closed-loop, end-to-end benchmark of CDSS reconciliation.
//
//   cdss_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR]
//
// One episode builds a confederation with sim::Cdss::Make and drives its
// participants round-robin from this thread: each turn executes
// `txns_between_recons` generated transactions, publishes, and
// reconciles, and the next turn starts only when the previous one has
// returned. The generator is this driver's own SwissProtWorkload, built
// from the same config and seed Cdss would use, and the store is reached
// through a TimedStore decorator, so every layer is timed from outside at
// its public entry points. The first round of an episode is a warm-up
// that counts as set-up; the remaining rounds are timed.
//
// --seed N derives kInputs workload seeds. A cycle runs one episode on
// each of them; cycles repeat, with identical inputs, until --seconds
// have been measured, and the metrics are taken over whole cycles.
//
// Every episode's decision digest must equal the one sim::Cdss::Run
// produces for the same config (and, on the DHT workloads, the one the
// central client-centric store produces), else the run is incorrect.
// The reference runs happen after the measurement, concurrently.
//
// --trace 0 reports the end-to-end metrics from untraced cycles.
// --trace 1 alternates untraced and traced cycles: traced ones record
// the driver's spans and enable the program's Tracer, and give the
// per-layer metrics; the pair gives the tracing overhead. The last line
// of stdout is the JSON result; NOTES.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "sim/cdss.h"
#include "timed_store.h"
#include "workload/swissprot.h"

namespace orchestra::cdssbench {
namespace {

/// Workload seeds per run. A run's p99 is set by the heaviest turns of a
/// few inputs, so pooling many input realizations keeps one unlucky
/// conflict structure from setting it: on `tiered_hotkeys` the p99 spread
/// across seeds due to the inputs alone is about 0.13 of the median with
/// 12 inputs and 0.08 with 24.
constexpr size_t kInputs = 24;
/// p99 needs at least ten samples beyond it.
constexpr size_t kMinTurnSamples = 1000;
/// Reference runs in flight at once (after the measurement).
constexpr size_t kReferenceThreads = 4;
/// Inputs on which the DHT workloads are also checked against the
/// central client-centric store.
constexpr size_t kCrossStoreInputs = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/cdssbench-out";
};

// ---------------------------------------------------------------------
// Workloads.

/// §6's setup: 25 mutually trusting peers at equal priority, RI 4,
/// transaction size 1, the generator's defaults (key pool 4000, key Zipf
/// 0.5, function Zipf 1.5, 7.3 cross-refs per insert, replace fraction
/// 0.5), delta fetch, DHT replication 3, provenance on. Faults, churn
/// and corruption stay off.
sim::CdssConfig PaperConfig(uint64_t seed) {
  sim::CdssConfig config;
  config.participants = 25;
  config.store = sim::StoreKind::kCentral;
  config.transaction_size = 1;
  config.txns_between_recons = 4;
  config.rounds = 6;
  config.topology = sim::TrustTopology::kUniform;
  config.num_threads = 1;
  config.seed = seed;
  config.fetch_mode = core::FetchMode::kDelta;
  config.replication_factor = 3;
  config.record_provenance = true;
  return config;
}

Result<sim::CdssConfig> WorkloadConfig(const std::string& name,
                                       uint64_t seed) {
  sim::CdssConfig config = PaperConfig(seed);
  if (name == "paper_central") return config;
  if (name == "paper_dht") {
    config.store = sim::StoreKind::kDht;
    return config;
  }
  if (name == "netcentric_dht") {
    config.store = sim::StoreKind::kDht;
    config.network_centric = true;
    return config;
  }
  if (name == "tiered_hotkeys") {
    config.topology = sim::TrustTopology::kTiered;
    config.workload.key_pool = 200;
    config.workload.key_zipf_s = 1.2;
    config.num_threads = 2;
    return config;
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

// ---------------------------------------------------------------------
// Decision digest.

struct Digest {
  size_t accepted = 0;
  size_t rejected = 0;
  size_t deferred = 0;
  std::vector<size_t> applied;  // per peer
  double state_ratio = 0;

  bool operator==(const Digest&) const = default;

  std::string ToString() const {
    size_t applied_total = 0;
    for (size_t n : applied) applied_total += n;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "accepted=%zu rejected=%zu deferred=%zu applied=%zu "
                  "state_ratio=%.6f",
                  accepted, rejected, deferred, applied_total, state_ratio);
    return buf;
  }
};

Digest DigestOf(sim::Cdss& cdss, size_t accepted, size_t rejected,
                size_t deferred) {
  Digest digest;
  digest.accepted = accepted;
  digest.rejected = rejected;
  digest.deferred = deferred;
  for (size_t i = 0; i < cdss.participant_count(); ++i) {
    digest.applied.push_back(cdss.participant(i).applied_count());
  }
  digest.state_ratio = cdss.CurrentStateRatio();
  return digest;
}

Result<Digest> ReferenceDigest(const sim::CdssConfig& config) {
  ORCH_ASSIGN_OR_RETURN(std::unique_ptr<sim::Cdss> cdss,
                        sim::Cdss::Make(config));
  ORCH_ASSIGN_OR_RETURN(sim::CdssResult result, cdss->Run());
  return DigestOf(*cdss, result.accepted, result.rejected, result.deferred);
}

/// Runs ReferenceDigest on every config, kReferenceThreads at a time.
std::vector<Result<Digest>> ReferenceDigests(
    const std::vector<sim::CdssConfig>& configs) {
  std::vector<Result<Digest>> out;
  for (size_t begin = 0; begin < configs.size();
       begin += kReferenceThreads) {
    const size_t end = std::min(configs.size(), begin + kReferenceThreads);
    std::vector<std::future<Result<Digest>>> jobs;
    for (size_t i = begin; i < end; ++i) {
      jobs.push_back(
          std::async(std::launch::async, ReferenceDigest, configs[i]));
    }
    for (auto& job : jobs) out.push_back(job.get());
  }
  return out;
}

// ---------------------------------------------------------------------
// Reading the program's own Tracer output.

int64_t ParseIntAfter(const std::string& text, size_t from, size_t to,
                      const char* key) {
  const size_t at = text.find(key, from);
  if (at == std::string::npos || at >= to) return -1;
  return std::strtoll(text.c_str() + at + std::strlen(key), nullptr, 10);
}

/// Inclusive wall time per span name, in ms, from a Chrome trace written
/// by orchestra::Tracer ('B'/'E' pairs matched per thread).
Result<std::map<std::string, double>> TracerTotalsMs(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read tracer output " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::map<std::string, double> totals;
  std::map<int64_t, std::vector<std::pair<std::string, int64_t>>> open;
  static constexpr char kOpen[] = "{\"name\":\"";
  for (size_t pos = text.find(kOpen); pos != std::string::npos;
       pos = text.find(kOpen, pos + 1)) {
    const size_t name_begin = pos + std::strlen(kOpen);
    const size_t name_end = text.find('"', name_begin);
    const size_t close = text.find('}', name_begin);
    if (name_end == std::string::npos || close == std::string::npos) break;
    const size_t ph = text.find("\"ph\":\"", name_end);
    if (ph == std::string::npos || ph >= close) continue;
    const char phase = text[ph + 6];
    if (phase != 'B' && phase != 'E') continue;
    const int64_t ts = ParseIntAfter(text, name_end, close, "\"ts\":");
    const int64_t tid = ParseIntAfter(text, name_end, close, "\"tid\":");
    std::string name = text.substr(name_begin, name_end - name_begin);
    auto& stack = open[tid];
    if (phase == 'B') {
      stack.emplace_back(std::move(name), ts);
    } else if (!stack.empty() && stack.back().first == name) {
      totals[name] += static_cast<double>(ts - stack.back().second) / 1e3;
      stack.pop_back();
    }
  }
  if (totals.empty()) {
    return Status::Corruption("no spans in tracer output " + path);
  }
  return totals;
}

// ---------------------------------------------------------------------
// Episodes.

/// Self time per layer over a range of the span log, and the part of
/// each turn's publish-and-reconcile window that no span accounts for.
struct SpanSummary {
  std::map<std::string, double> self_ms;  // layer -> self time
  double window_ms = 0;
  double unaccounted_ms = 0;
};

SpanSummary Summarize(const std::vector<SpanLog::Span>& spans, size_t begin,
                      size_t end) {
  SpanSummary summary;
  // A span's self time is its duration minus its children's.
  std::vector<int64_t> self(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const int64_t duration = spans[i].end_ns - spans[i].begin_ns;
    self[i - begin] += duration;
    if (spans[i].parent >= static_cast<int>(begin)) {
      self[spans[i].parent - begin] -= duration;
    }
  }
  for (size_t i = begin; i < end; ++i) {
    summary.self_ms[spans[i].layer] +=
        static_cast<double>(self[i - begin]) / 1e6;
  }
  // A turn's window runs from publish entry to reconcile return. Spans
  // are logged in begin order, so the window's spans are the contiguous
  // run from the publish span to the last span begun before the window
  // closed: the publish call, the reconcile call and the store calls
  // under them. Their self times should add up to the window.
  for (size_t i = begin; i < end; ++i) {
    if (std::string_view(spans[i].name) != "core.publish_with_retry") {
      continue;
    }
    size_t r = i + 1;
    while (r < end &&
           std::string_view(spans[r].name) != "core.reconcile_with_retry") {
      ++r;
    }
    if (r == end) break;
    const int64_t window_begin = spans[i].begin_ns;
    const int64_t window_end = spans[r].end_ns;
    int64_t accounted = 0;
    size_t j = i;
    for (; j < end && spans[j].begin_ns < window_end; ++j) {
      accounted += self[j - begin];
    }
    summary.window_ms += static_cast<double>(window_end - window_begin) / 1e6;
    summary.unaccounted_ms +=
        static_cast<double>(window_end - window_begin - accounted) / 1e6;
    i = j - 1;
  }
  return summary;
}

/// What one episode measured over its timed rounds. Every field but
/// `digest` is a sum, so Accumulate can total a cycle of episodes.
struct Episode {
  size_t episodes = 0;
  double setup_s = 0;
  double wall_s = 0;     // the timed rounds, generator included
  double program_s = 0;  // execute + publish-and-reconcile
  std::vector<double> recon_ms;  // one per timed turn
  int64_t published_txns = 0;
  int64_t recons = 0;
  double model_us = 0;  // store sim network + store CPU + local, per turn
  double local_us = 0;
  double state_ratio = 0;
  core::StoreStats store;  // all peers
  int64_t ops_attempted = 0;
  int64_t ops_retried = 0;
  int64_t ops_failed = 0;
  int64_t gen_ns = 0;
  int64_t execute_ns = 0;
  int64_t reconcile_self_ns = 0;
  std::array<int64_t, TimedStore::kNumCalls> store_ns{};
  std::map<std::string, int64_t> counters;  // registry deltas
  std::map<std::string, double> tracer_ms;  // traced episodes only
  SpanSummary spans;                        // traced episodes only
  Digest digest;  // the whole episode, warm-up included
};

void Accumulate(Episode* sum, const Episode& ep) {
  sum->episodes += ep.episodes;
  sum->setup_s += ep.setup_s;
  sum->wall_s += ep.wall_s;
  sum->program_s += ep.program_s;
  sum->recon_ms.insert(sum->recon_ms.end(), ep.recon_ms.begin(),
                       ep.recon_ms.end());
  sum->published_txns += ep.published_txns;
  sum->recons += ep.recons;
  sum->model_us += ep.model_us;
  sum->local_us += ep.local_us;
  sum->state_ratio += ep.state_ratio;
  sum->store = sum->store + ep.store;
  sum->ops_attempted += ep.ops_attempted;
  sum->ops_retried += ep.ops_retried;
  sum->ops_failed += ep.ops_failed;
  sum->gen_ns += ep.gen_ns;
  sum->execute_ns += ep.execute_ns;
  sum->reconcile_self_ns += ep.reconcile_self_ns;
  for (size_t c = 0; c < ep.store_ns.size(); ++c) {
    sum->store_ns[c] += ep.store_ns[c];
  }
  for (const auto& [name, n] : ep.counters) sum->counters[name] += n;
  for (const auto& [name, ms] : ep.tracer_ms) sum->tracer_ms[name] += ms;
  for (const auto& [layer, ms] : ep.spans.self_ms) {
    sum->spans.self_ms[layer] += ms;
  }
  sum->spans.window_ms += ep.spans.window_ms;
  sum->spans.unaccounted_ms += ep.spans.unaccounted_ms;
}

class EpisodeRunner {
 public:
  EpisodeRunner(const sim::CdssConfig& config, SpanLog* spans,
                int64_t* next_turn)
      : config_(config), spans_(spans), next_turn_(next_turn) {}

  /// Runs one episode. When `tracer_path` is non-empty the timed rounds
  /// are traced: driver spans go to the span log and the program's
  /// Tracer writes to `tracer_path`, which is read back and removed.
  Result<Episode> Run(const std::string& tracer_path) {
    Episode ep;
    ep.episodes = 1;
    const int64_t setup_begin = NowNanos();
    ORCH_ASSIGN_OR_RETURN(cdss_, sim::Cdss::Make(config_));
    workload::WorkloadConfig wl = config_.workload;
    wl.transaction_size = config_.transaction_size;
    wl.seed = config_.seed;
    generator_ = std::make_unique<workload::SwissProtWorkload>(wl);
    store_ = std::make_unique<TimedStore>(&cdss_->store(), spans_);
    // Warm-up round: fills the caches and lazily registered
    // instruments; counted as set-up.
    Episode warmup;
    for (size_t i = 0; i < cdss_->participant_count(); ++i) Turn(i, &warmup);
    ep.setup_s = static_cast<double>(NowNanos() - setup_begin) / 1e9;
    ep.ops_attempted += warmup.ops_attempted;
    ep.ops_retried += warmup.ops_retried;
    ep.ops_failed += warmup.ops_failed;

    const bool traced = !tracer_path.empty();
    const size_t span_begin = spans_->size();
    const core::StoreStats store_before = TotalStats();
    const auto counters_before = MetricsRegistry::Global().CounterValues();
    const std::array<int64_t, TimedStore::kNumCalls> store_ns_before =
        StoreNanos();
    if (traced) {
      Tracer::Global().Enable(tracer_path);
      spans_->set_enabled(true);
    }
    const int64_t timed_begin = NowNanos();
    for (size_t round = 1; round < config_.rounds; ++round) {
      for (size_t i = 0; i < cdss_->participant_count(); ++i) Turn(i, &ep);
    }
    ep.wall_s = static_cast<double>(NowNanos() - timed_begin) / 1e9;
    if (traced) {
      spans_->set_enabled(false);
      Tracer::Global().Disable();
    }
    ep.counters = CounterDeltas(counters_before,
                                MetricsRegistry::Global().CounterValues());
    ep.store = TotalStats() - store_before;
    const auto store_ns_after = StoreNanos();
    for (size_t c = 0; c < store_ns_after.size(); ++c) {
      ep.store_ns[c] = store_ns_after[c] - store_ns_before[c];
    }
    if (traced) {
      ORCH_ASSIGN_OR_RETURN(ep.tracer_ms, TracerTotalsMs(tracer_path));
      std::remove(tracer_path.c_str());
      ep.spans = Summarize(spans_->spans(), span_begin, spans_->size());
    }
    ep.digest = DigestOf(*cdss_, accepted_, rejected_, deferred_);
    ep.state_ratio = ep.digest.state_ratio;
    return ep;
  }

 private:
  core::StoreStats TotalStats() const {
    core::StoreStats total;
    for (size_t i = 0; i < cdss_->participant_count(); ++i) {
      total = total + cdss_->store().StatsFor(
                          static_cast<core::ParticipantId>(i));
    }
    return total;
  }

  std::array<int64_t, TimedStore::kNumCalls> StoreNanos() const {
    std::array<int64_t, TimedStore::kNumCalls> out{};
    for (size_t c = 0; c < out.size(); ++c) {
      out[c] = store_->nanos(static_cast<TimedStore::Call>(c));
    }
    return out;
  }

  /// One closed-loop turn of peer `index`, accumulated into `ep`.
  void Turn(size_t index, Episode* ep) {
    core::Participant& p = cdss_->participant(index);
    spans_->set_turn((*next_turn_)++);
    SpanLog::Scope turn_span(spans_, "turn", "driver");
    for (size_t t = 0; t < config_.txns_between_recons; ++t) {
      const int64_t gen_begin = NowNanos();
      std::vector<core::Update> updates;
      {
        SpanLog::Scope span(spans_, "workload.next_transaction", "workload");
        updates = generator_->NextTransaction(p.id(), p.instance());
      }
      const int64_t execute_begin = NowNanos();
      ep->gen_ns += execute_begin - gen_begin;
      if (updates.empty()) continue;  // as Cdss: nothing to change
      bool executed = false;
      {
        SpanLog::Scope span(spans_, "core.execute_transaction", "core");
        executed = p.ExecuteTransaction(std::move(updates)).ok();
      }
      ep->execute_ns += NowNanos() - execute_begin;
      // As Cdss: a transaction that raced the peer's own earlier
      // operations is skipped, not counted as a failure.
      if (executed) ++ep->published_txns;
    }

    const core::StoreStats stats_before = cdss_->store().StatsFor(p.id());
    const int64_t publish_begin = NowNanos();
    core::RetryStats publish_retry;
    bool published = false;
    {
      SpanLog::Scope span(spans_, "core.publish_with_retry", "core");
      published =
          p.PublishWithRetry(store_.get(), config_.retry, &publish_retry)
              .ok();
    }
    const int64_t reconcile_begin = NowNanos();
    const int64_t store_ns_before = store_->total_nanos();
    core::RetryStats reconcile_retry;
    Result<core::ReconcileReport> report = [&] {
      SpanLog::Scope span(spans_, "core.reconcile_with_retry", "core");
      return config_.network_centric
                 ? p.ReconcileNetworkCentricWithRetry(
                       store_.get(), config_.retry, &reconcile_retry)
                 : p.ReconcileWithRetry(store_.get(), config_.retry,
                                        &reconcile_retry);
    }();
    const int64_t reconcile_end = NowNanos();
    const core::StoreStats turn_stats =
        cdss_->store().StatsFor(p.id()) - stats_before;

    ep->recon_ms.push_back(
        static_cast<double>(reconcile_end - publish_begin) / 1e6);
    ep->program_s += static_cast<double>(reconcile_end - publish_begin) / 1e9;
    ep->reconcile_self_ns += (reconcile_end - reconcile_begin) -
                             (store_->total_nanos() - store_ns_before);
    ep->ops_attempted += 2;
    ep->ops_retried += (publish_retry.attempts > 1 ? 1 : 0) +
                       (reconcile_retry.attempts > 1 ? 1 : 0);
    ep->ops_failed += (published ? 0 : 1) + (report.ok() ? 0 : 1);
    ++ep->recons;
    if (!report.ok()) return;
    accepted_ += report->accepted.size();
    rejected_ += report->rejected.size();
    deferred_ += report->deferred.size();
    ep->local_us += static_cast<double>(report->local_micros);
    ep->model_us += static_cast<double>(turn_stats.TotalStoreMicros() +
                                        report->local_micros);
  }

  const sim::CdssConfig& config_;
  SpanLog* spans_;
  int64_t* next_turn_;
  std::unique_ptr<sim::Cdss> cdss_;
  std::unique_ptr<workload::SwissProtWorkload> generator_;
  std::unique_ptr<TimedStore> store_;
  size_t accepted_ = 0;
  size_t rejected_ = 0;
  size_t deferred_ = 0;
};

// ---------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Linear-interpolated quantile of `values` (q in [0, 1]).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename F>
double MedianOf(const std::vector<Episode>& cycles, F f) {
  std::vector<double> values;
  for (const Episode& cycle : cycles) values.push_back(f(cycle));
  return Median(values);
}

/// End-to-end metrics over untraced cycles. Turn latencies pool every
/// cycle; the other metrics are medians of per-cycle values.
std::vector<Metric> EndToEndMetrics(const std::vector<Episode>& cycles,
                                    const std::vector<double>& setup_s,
                                    double peak_rss_mb) {
  std::vector<double> recon_ms;
  for (const Episode& cycle : cycles) {
    recon_ms.insert(recon_ms.end(), cycle.recon_ms.begin(),
                    cycle.recon_ms.end());
  }
  return {
      {"recon_ms_p50", Quantile(recon_ms, 0.50), "ms"},
      {"recon_ms_p99", Quantile(recon_ms, 0.99), "ms"},
      {"txns_per_s", MedianOf(cycles,
                              [](const Episode& c) {
                                return Ratio(
                                    static_cast<double>(c.published_txns),
                                    c.program_s +
                                        static_cast<double>(c.execute_ns) /
                                            1e9);
                              }),
       "txn/s"},
      {"recon_model_ms_mean", MedianOf(cycles,
                                       [](const Episode& c) {
                                         return Ratio(c.model_us / 1e3,
                                                      static_cast<double>(
                                                          c.recons));
                                       }),
       "ms"},
      {"sim_net_ms_per_recon",
       MedianOf(cycles,
                [](const Episode& c) {
                  return Ratio(
                      static_cast<double>(c.store.sim_network_micros) / 1e3,
                      static_cast<double>(c.recons));
                }),
       "ms"},
      {"messages_per_recon", MedianOf(cycles,
                                      [](const Episode& c) {
                                        return Ratio(
                                            static_cast<double>(
                                                c.store.messages),
                                            static_cast<double>(c.recons));
                                      }),
       "msgs"},
      {"bytes_per_recon", MedianOf(cycles,
                                   [](const Episode& c) {
                                     return Ratio(
                                         static_cast<double>(c.store.bytes),
                                         static_cast<double>(c.recons));
                                   }),
       "bytes"},
      {"state_ratio", MedianOf(cycles,
                               [](const Episode& c) {
                                 return c.state_ratio /
                                        static_cast<double>(c.episodes);
                               }),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setup_s), "s"},
  };
}

/// Per-layer metrics of one traced cycle, per episode (the cycle's
/// totals over its kInputs episodes). Ratios are over the cycle.
std::map<std::string, double> LayerMetrics(const Episode& cycle) {
  const double episodes = static_cast<double>(cycle.episodes);
  const auto c = [&](const char* name) {
    auto it = cycle.counters.find(name);
    return it == cycle.counters.end() ? 0.0
                                      : static_cast<double>(it->second);
  };
  const auto t = [&](const std::string& name) {
    auto it = cycle.tracer_ms.find(name);
    return it == cycle.tracer_ms.end() ? 0.0 : it->second;
  };
  const auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  // Absolute quantities, divided by `episodes` below.
  std::map<std::string, double> m;
  m["workload.gen_ms"] = ms(cycle.gen_ns);

  m["core.execute_ms"] = ms(cycle.execute_ns);
  m["core.reconcile_self_ms"] = ms(cycle.reconcile_self_ns);
  m["core.local_reported_ms"] = cycle.local_us / 1e3;
  m["core.analyzed_txns"] = c("reconcile.analyzed_txns");
  m["core.fetched_txns"] = c("reconcile.fetched_txns");
  m["core.reconsidered_txns"] = c("reconcile.reconsidered_txns");
  m["core.conflict_pairs"] = c("reconcile.conflict_pairs");
  m["core.provenance_records"] = c("provenance.records");
  double split_ms = t("reconcile.fold_cache");
  m["core.fold_cache_ms"] = split_ms;
  for (const char* phase : {"analysis", "check_state", "priority_groups",
                            "propagate_deferral", "apply", "soft_state"}) {
    const double phase_ms = t(std::string("reconcile.phase.") + phase);
    m[std::string("core.phase.") + phase + "_ms"] = phase_ms;
    split_ms += phase_ms;
  }
  m["core.reconcile_other_ms"] = m["core.reconcile_self_ms"] - split_ms;

  m["store.publish_ms"] = ms(cycle.store_ns[TimedStore::kPublish]);
  m["store.fetch_ms"] = ms(cycle.store_ns[TimedStore::kFetch]);
  m["store.record_decisions_ms"] =
      ms(cycle.store_ns[TimedStore::kRecordDecisions]);
  m["store.record_provenance_ms"] =
      ms(cycle.store_ns[TimedStore::kRecordProvenance]);
  m["store.cpu_reported_ms"] =
      static_cast<double>(cycle.store.store_cpu_micros) / 1e3;
  double store_spans_ms = 0;
  for (const auto& [name, span_ms] : cycle.tracer_ms) {
    if (name.rfind("central.", 0) == 0 || name.rfind("dht.", 0) == 0) {
      store_spans_ms += span_ms;
    }
  }
  m["store.traced_ms"] = store_spans_ms;
  m["store.fetch.decoded_txns"] = c("reconcile.fetch.decoded_txns");
  m["store.fetch.cache_hits"] = c("reconcile.fetch.cache_hits");
  m["store.fetch.suppressed_lookups"] = c("reconcile.fetch.suppressed_lookups");
  m["store.shipped_txns"] =
      c("store.central.shipped_txns") + c("store.dht.shipped_txns");
  m["store.dht.multi_get_batches"] = c("store.dht.multi_get_batches");

  m["net.sim_ms"] = static_cast<double>(cycle.store.sim_network_micros) / 1e3;
  m["net.messages"] = c("net.messages");
  m["net.bytes"] = c("net.bytes");
  m["net.dht.route_hops"] = c("dht.route_hops");
  m["net.retransmits"] = c("net.retransmits");

  m["storage.puts"] = c("storage.puts");
  m["wal.append_bytes"] = c("wal.append_bytes");

  m["retry.attempts"] = c("retry.attempts");
  m["retry.exhausted"] = c("retry.exhausted");

  for (const char* layer : {"driver", "workload", "core", "store"}) {
    auto it = cycle.spans.self_ms.find(layer);
    m[std::string("trace.self.") + layer + "_ms"] =
        it == cycle.spans.self_ms.end() ? 0.0 : it->second;
  }
  m["trace.unaccounted_ms"] = cycle.spans.unaccounted_ms;
  for (auto& [name, value] : m) value /= episodes;

  // Ratios, over the whole cycle.
  m["core.pairs_per_analyzed_txn"] =
      Ratio(c("reconcile.conflict_pairs"), c("reconcile.analyzed_txns"));
  m["core.decided_share"] =
      Ratio(c("reconcile.accepted_roots") + c("reconcile.rejected_roots"),
            c("reconcile.analyzed_txns"));
  const double decoded = c("reconcile.fetch.decoded_txns");
  const double hits = c("reconcile.fetch.cache_hits");
  m["store.fetch.cache_hit_ratio"] = Ratio(hits, hits + decoded);
  m["store.shipped_per_fetched"] =
      Ratio(c("store.central.shipped_txns") + c("store.dht.shipped_txns"),
            c("reconcile.fetched_txns"));
  m["net.dht.hops_per_route"] = Ratio(c("dht.route_hops"), c("dht.routes"));
  m["storage.puts_per_recon"] =
      Ratio(c("storage.puts"), static_cast<double>(cycle.recons));
  m["retry.failed_op_share"] =
      Ratio(static_cast<double>(cycle.ops_failed),
            static_cast<double>(cycle.ops_attempted));
  m["trace.unaccounted_pct"] =
      100.0 * Ratio(cycle.spans.unaccounted_ms, cycle.spans.window_ms);
  return m;
}

std::string LayerUnit(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("_pct")) return "%";
  if (ends_with("bytes")) return "bytes";
  if (ends_with("_share") || ends_with("_ratio") || ends_with("_per_recon") ||
      ends_with("_per_fetched") || ends_with("_per_route") ||
      ends_with("_per_analyzed_txn")) {
    return "ratio";
  }
  return "count";
}

// ---------------------------------------------------------------------
// Driver.

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value: " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag: " + flag);
    }
    if (end != nullptr && *end != '\0') {
      return Status::InvalidArgument("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) return Status::InvalidArgument("need --workload");
  if (!(args.seconds > 0)) return Status::InvalidArgument("need --seconds > 0");
  return args;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics[i].name.c_str());
    if (std::isfinite(metrics[i].value)) {
      std::printf("%.17g", metrics[i].value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "cdss_bench: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const Args& args = *parsed;
  std::vector<sim::CdssConfig> configs;
  for (size_t k = 0; k < kInputs; ++k) {
    Result<sim::CdssConfig> config =
        WorkloadConfig(args.workload, args.seed * kInputs + k);
    if (!config.ok()) {
      std::fprintf(stderr, "cdss_bench: %s\n",
                   config.status().ToString().c_str());
      return 2;
    }
    configs.push_back(*config);
  }

  // Measurement: whole cycles. With --trace 1 every untraced episode is
  // followed by a traced one on the same input, so the two sides of the
  // overhead comparison are paired seconds apart on the same host.
  SpanLog spans;
  int64_t next_turn = 0;
  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  std::vector<double> setup_s;
  std::vector<std::vector<Digest>> digests(kInputs);
  size_t samples = 0;
  const std::string tracer_path = args.out_dir + "/tracer-" + args.workload +
                                  "-seed" + std::to_string(args.seed) +
                                  ".json";
  const int64_t measure_begin = NowNanos();
  const auto elapsed_s = [&] {
    return static_cast<double>(NowNanos() - measure_begin) / 1e9;
  };
  while (elapsed_s() < args.seconds || samples < kMinTurnSamples) {
    std::array<Episode, 2> cycle;  // [untraced, traced]
    for (size_t k = 0; k < kInputs; ++k) {
      for (size_t t = 0; t <= (args.trace ? 1 : 0); ++t) {
        EpisodeRunner runner(configs[k], &spans, &next_turn);
        Result<Episode> ep = runner.Run(t == 1 ? tracer_path : "");
        if (!ep.ok()) {
          std::fprintf(stderr, "cdss_bench: episode failed: %s\n",
                       ep.status().ToString().c_str());
          return 1;
        }
        if (t == 0) setup_s.push_back(ep->setup_s);
        digests[k].push_back(ep->digest);
        Accumulate(&cycle[t], *ep);
      }
    }
    std::printf("cycle %zu: setup %.3f s  timed %.3f s  recon p50 %.3f ms"
                "  p99 %.3f ms",
                untraced.size(), cycle[0].setup_s, cycle[0].wall_s,
                Quantile(cycle[0].recon_ms, 0.5),
                Quantile(cycle[0].recon_ms, 0.99));
    if (args.trace) std::printf("  traced %.3f s", cycle[1].wall_s);
    std::printf("\n");
    samples += cycle[0].recon_ms.size();
    untraced.push_back(std::move(cycle[0]));
    if (args.trace) traced.push_back(std::move(cycle[1]));
  }
  const double measured_s = elapsed_s();
  const double peak_rss_mb = PeakRssMb();

  // Decision-digest gate. Every episode on an input must match
  // Cdss::Run on that input. On the DHT workloads, Cdss::Run must also
  // match the central client-centric store on the first
  // kCrossStoreInputs inputs: decisions do not depend on the store.
  std::vector<sim::CdssConfig> reference_configs = configs;
  if (configs.front().store == sim::StoreKind::kDht) {
    for (size_t k = 0; k < kCrossStoreInputs; ++k) {
      sim::CdssConfig config = configs[k];
      config.store = sim::StoreKind::kCentral;
      config.network_centric = false;
      reference_configs.push_back(config);
    }
  }
  const int64_t references_begin = NowNanos();
  const std::vector<Result<Digest>> references =
      ReferenceDigests(reference_configs);
  const double references_s =
      static_cast<double>(NowNanos() - references_begin) / 1e9;
  for (const Result<Digest>& reference : references) {
    if (reference.ok()) continue;
    std::fprintf(stderr, "cdss_bench: reference run failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  bool correct = true;
  size_t mismatched = 0;
  for (size_t k = 0; k < kInputs; ++k) {
    for (const Digest& digest : digests[k]) {
      if (digest == *references[k]) continue;
      std::printf("DIGEST MISMATCH input %zu: episode %s vs Cdss::Run %s\n",
                  k, digest.ToString().c_str(),
                  references[k]->ToString().c_str());
      ++mismatched;
      correct = false;
    }
  }
  for (size_t r = kInputs; r < references.size(); ++r) {
    const size_t k = r - kInputs;
    if (*references[r] == *references[k]) continue;
    std::printf("DIGEST MISMATCH input %zu: %s store %s vs central %s\n", k,
                args.workload.c_str(), references[k]->ToString().c_str(),
                references[r]->ToString().c_str());
    correct = false;
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t retried = 0;
  for (const auto* cycles : {&untraced, &traced}) {
    for (const Episode& cycle : *cycles) {
      attempted += cycle.ops_attempted;
      failed += cycle.ops_failed;
      retried += cycle.ops_retried;
    }
  }
  if (failed > 0) correct = false;

  std::printf("workload %s  seed %llu  inputs %zu  rounds %zu (1 warm-up)  "
              "cycles %zu untraced + %zu traced  measured %.1f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), kInputs,
              configs.front().rounds, untraced.size(), traced.size(),
              measured_s);
  for (size_t k = 0; k < kInputs; ++k) {
    std::printf("input %zu digest %s\n", k,
                digests[k].front().ToString().c_str());
  }
  std::printf("digest gate: %zu episodes checked against %zu reference "
              "runs (%.1f s), %zu mismatched\n",
              untraced.size() * kInputs + traced.size() * kInputs,
              references.size(), references_s, mismatched);
  std::printf("ops attempted %lld  retried %lld  failed %lld\n",
              static_cast<long long>(attempted),
              static_cast<long long>(retried), static_cast<long long>(failed));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(untraced, setup_s, peak_rss_mb);
    std::printf("recon_ms samples %zu (%zu beyond p99)\n", samples,
                samples - static_cast<size_t>(std::ceil(0.99 * samples)));
  } else {
    std::map<std::string, std::vector<double>> per_layer;
    for (const Episode& cycle : traced) {
      for (const auto& [name, value] : LayerMetrics(cycle)) {
        per_layer[name].push_back(value);
      }
    }
    for (const auto& [name, values] : per_layer) {
      metrics.push_back({name, Median(values), LayerUnit(name)});
    }
    const auto wall = [](const Episode& c) { return c.wall_s; };
    const double untraced_s = MedianOf(untraced, wall);
    const double traced_s = MedianOf(traced, wall);
    metrics.push_back({"trace.overhead_pct",
                       100.0 * (traced_s - untraced_s) / untraced_s, "%"});
    const std::string spans_path = args.out_dir + "/spans-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    if (!spans.WriteChromeTrace(spans_path)) {
      std::fprintf(stderr, "cdss_bench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.size(),
                spans_path.c_str());
  }
  if (!args.trace) {
    // Zero whenever the run is correct, so it is printed here and kept
    // out of the JSON metrics, whose spreads are taken relative to their
    // medians.
    std::printf("  %-34s %16.6f %s\n", "failed_op_share",
                Ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                "ratio");
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace orchestra::cdssbench

int main(int argc, char** argv) {
  return orchestra::cdssbench::Main(argc, argv);
}

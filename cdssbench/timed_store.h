// Benchmark-side instrumentation: an in-memory span log and a timing
// decorator over core::UpdateStore. Both time the program from outside,
// at the calls into its public functions; nothing here changes what the
// wrapped store does.
#ifndef ORCHESTRA_CDSSBENCH_TIMED_STORE_H_
#define ORCHESTRA_CDSSBENCH_TIMED_STORE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/update_store.h"

namespace orchestra::cdssbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans recorded around the calls into each layer. A span's parent is
/// the span open when it began; every span of one closed-loop turn
/// carries that turn's id. Kept in memory; WriteChromeTrace emits them
/// once the run is over. Disabled logs record nothing.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;   // string literal
    const char* layer = nullptr;  // "driver", "workload", "core", "store"
    int64_t turn = 0;
    int parent = -1;  // index into spans(), -1 for a root
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_turn(int64_t turn) { turn_ = turn; }

  /// Opens a span; returns its index, or -1 when disabled.
  int Begin(const char* name, const char* layer) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.layer = layer;
    span.turn = turn_;
    span.parent = open_.empty() ? -1 : open_.back();
    span.begin_ns = NowNanos();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNanos();
    open_.pop_back();
  }

  /// RAII wrapper over Begin/End.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, const char* layer)
        : log_(log), index_(log->Begin(name, layer)) {}
    ~Scope() { log_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Writes spans [0, size()) as Chrome trace complete events ("X"),
  /// one track per layer, with the turn id in args. False on I/O error.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
    std::fputs("{\"traceEvents\":[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":\"%s\","
                   "\"args\":{\"turn\":%lld,\"parent\":%d}}",
                   i == 0 ? "" : ",\n", s.name, s.layer,
                   static_cast<double>(s.begin_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.begin_ns) / 1e3, s.layer,
                   static_cast<long long>(s.turn), s.parent);
    }
    std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  int64_t turn_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Timing decorator over an update store. Forwards every call to the
/// wrapped store, accumulating wall time per entry point, and records a
/// "store" span per call in the span log. Network-centric fetches
/// forward to the wrapped store's NetworkCentricStore side, so
/// Participant::ReconcileNetworkCentric sees the same capability
/// through the decorator.
class TimedStore final : public core::UpdateStore,
                         public core::NetworkCentricStore {
 public:
  enum Call {
    kPublish,
    kFetch,  // BeginReconciliation or BeginNetworkCentricReconciliation
    kRecordDecisions,
    kRecordProvenance,
    kStatsFor,
    kOther,  // registration, recovery, bootstrap
    kNumCalls,
  };

  TimedStore(core::UpdateStore* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  /// Wall time spent inside calls of one kind, and in all calls.
  int64_t nanos(Call call) const { return nanos_[call]; }
  int64_t total_nanos() const {
    int64_t total = 0;
    for (int64_t n : nanos_) total += n;
    return total;
  }

  Status RegisterParticipant(core::ParticipantId peer,
                             const core::TrustPolicy* policy) override {
    Timed timed(this, kOther, "store.register");
    return inner_->RegisterParticipant(peer, policy);
  }
  Result<core::Epoch> Publish(
      core::ParticipantId peer,
      std::vector<core::Transaction> txns) override {
    Timed timed(this, kPublish, "store.publish");
    return inner_->Publish(peer, std::move(txns));
  }
  Result<core::ReconcileFetch> BeginReconciliation(
      core::ParticipantId peer) override {
    Timed timed(this, kFetch, "store.fetch");
    return inner_->BeginReconciliation(peer);
  }
  Result<core::NetworkCentricFetch> BeginNetworkCentricReconciliation(
      core::ParticipantId peer) override {
    auto* inner = dynamic_cast<core::NetworkCentricStore*>(inner_);
    if (inner == nullptr) {
      return Status::NotSupported("wrapped store is not network-centric");
    }
    Timed timed(this, kFetch, "store.fetch_network_centric");
    return inner->BeginNetworkCentricReconciliation(peer);
  }
  Status RecordDecisions(
      core::ParticipantId peer, int64_t recno,
      const std::vector<core::TransactionId>& applied,
      const std::vector<core::TransactionId>& rejected) override {
    Timed timed(this, kRecordDecisions, "store.record_decisions");
    return inner_->RecordDecisions(peer, recno, applied, rejected);
  }
  Status RecordProvenance(
      core::ParticipantId peer, int64_t recno,
      const std::vector<core::ProvenanceRecord>& records) override {
    Timed timed(this, kRecordProvenance, "store.record_provenance");
    return inner_->RecordProvenance(peer, recno, records);
  }
  Result<core::RecoveryBundle> FetchRecoveryState(
      core::ParticipantId peer) const override {
    Timed timed(this, kOther, "store.fetch_recovery_state");
    return inner_->FetchRecoveryState(peer);
  }
  Result<core::RecoveryBundle> Bootstrap(
      core::ParticipantId new_peer,
      core::ParticipantId source_peer) override {
    Timed timed(this, kOther, "store.bootstrap");
    return inner_->Bootstrap(new_peer, source_peer);
  }
  core::StoreStats StatsFor(core::ParticipantId peer) const override {
    Timed timed(this, kStatsFor, "store.stats_for");
    return inner_->StatsFor(peer);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  /// Times one forwarded call. The store interface has const entry
  /// points, so the accumulators are mutable.
  class Timed {
   public:
    Timed(const TimedStore* store, Call call, const char* span)
        : store_(store),
          call_(call),
          span_(store->spans_->Begin(span, "store")),
          begin_ns_(NowNanos()) {}
    ~Timed() {
      store_->nanos_[call_] += NowNanos() - begin_ns_;
      store_->spans_->End(span_);
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    const TimedStore* store_;
    Call call_;
    int span_;
    int64_t begin_ns_;
  };

  core::UpdateStore* inner_;
  SpanLog* spans_;
  mutable std::array<int64_t, kNumCalls> nanos_{};
};

}  // namespace orchestra::cdssbench

#endif  // ORCHESTRA_CDSSBENCH_TIMED_STORE_H_

// Pipeline stage tracing — scoped spans around the per-reading stages of
// the fusion filter pipeline (DESIGN.md §5.11):
//
//   validate -> fusion-disk query -> weight update -> resample
//                                          -> mean-shift -> budget adapt
//
// plus fusion-index maintenance (a full rebuild, or the incremental re-bin
// after a predict or resample) and a per-drain envelope span at the
// service layer. Spans are sampled (one shared relaxed tick counter, every
// Nth span records) and land in a preallocated ring-buffer TraceSink; the
// exporter (obs/export.hpp) drains the ring to JSONL.
//
// Disabled-path guarantees (pinned by the golden-fingerprint and
// zero-allocation tests):
//   * runtime-disabled — a null StageTracer — costs one pointer compare per
//     span site: no clock read, no RNG, no FP arithmetic, no allocation, so
//     filter results stay bit-identical to an uninstrumented build;
//   * compile-time RADLOC_OBS_OFF replaces ScopedSpan with an empty shell,
//     removing even that compare (the sink/exporter types remain so cold
//     tooling still links).
//
// A StageTracer is single-threaded by contract: the service layer binds one
// per session and only touches it under the session's drain serialization.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace radloc::obs {

enum class Stage : std::uint8_t {
  kValidate = 0,
  kFusionQuery,   ///< fusion-disk selection + predict + hypothesis rates
  kWeightUpdate,  ///< Poisson scoring + mass-preserving writeback (the
                  ///< resample span NESTS inside this one when it fires)
  kResample,
  kMeanShift,
  kBudgetAdapt,
  kDrain,         ///< service-layer envelope around one session drain
  kIndex,         ///< fusion-index maintenance: a full rebuild before the
                  ///< query, or the incremental re-bin after a predict or
                  ///< resample (NESTS inside kFusionQuery / kWeightUpdate)
};

inline constexpr std::size_t kStageCount = 8;

[[nodiscard]] const char* to_string(Stage stage);

struct TraceEvent {
  std::uint64_t session = 0;  ///< tracer label (session id; 0 = unbound)
  std::uint64_t seq = 0;      ///< per-tracer recorded-span ordinal
  Stage stage = Stage::kValidate;
  double start_us = 0.0;      ///< microseconds since the sink's epoch
  double duration_us = 0.0;
};

/// Bounded ring of sampled spans. record() copies into a preallocated slot
/// under a mutex (spans are sampled, so the lock is off the common path);
/// once full, new events overwrite the oldest and `dropped` counts them.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;
  /// Default sampling: every 16th span. The committed telemetry-overhead
  /// baseline (BENCH_telemetry_overhead.json) is measured at this rate.
  static constexpr std::uint64_t kDefaultSampleInterval = 16;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity,
                     std::uint64_t sample_interval = kDefaultSampleInterval);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// One relaxed fetch_add; true for every sample_interval-th call across
  /// all threads. Interval 0 disables sampling entirely.
  [[nodiscard]] bool should_sample() {
    if (interval_ == 0) return false;
    return tick_.fetch_add(1, std::memory_order_relaxed) % interval_ == 0;
  }

  void record(const TraceEvent& e);

  /// Moves the buffered events out, oldest first, and clears the ring.
  [[nodiscard]] std::vector<TraceEvent> drain();

  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::uint64_t sample_interval() const { return interval_; }

  /// Microseconds since the sink's construction epoch (steady clock).
  [[nodiscard]] double now_us() const;

 private:
  std::uint64_t interval_;
  std::atomic<std::uint64_t> tick_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  ///< preallocated to capacity
  std::size_t head_ = 0;          ///< next write slot
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Binds a sink to one pipeline owner (a session). Holds the label stamped
/// on every event and the per-tracer sequence counter. NOT thread-safe —
/// one tracer belongs to one serialized pipeline (the session drain lock).
class StageTracer {
 public:
  StageTracer() = default;
  StageTracer(TraceSink* sink, std::uint64_t label) : sink_(sink), label_(label) {}

  [[nodiscard]] TraceSink* sink() const { return sink_; }
  [[nodiscard]] std::uint64_t label() const { return label_; }
  std::uint64_t next_seq() { return seq_++; }

 private:
  TraceSink* sink_ = nullptr;
  std::uint64_t label_ = 0;
  std::uint64_t seq_ = 0;
};

#ifdef RADLOC_OBS_OFF

/// Compile-time escape hatch: span sites collapse to nothing.
class ScopedSpan {
 public:
  ScopedSpan(StageTracer* /*tracer*/, Stage /*stage*/) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

#else

/// RAII span: samples at construction (null tracer = one pointer compare
/// and out), stamps start/duration from the sink's clock at destruction.
class ScopedSpan {
 public:
  ScopedSpan(StageTracer* tracer, Stage stage) {
    if (tracer != nullptr && tracer->sink() != nullptr && tracer->sink()->should_sample()) {
      tracer_ = tracer;
      stage_ = stage;
      start_us_ = tracer->sink()->now_us();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    TraceEvent e;
    e.session = tracer_->label();
    e.seq = tracer_->next_seq();
    e.stage = stage_;
    e.start_us = start_us_;
    e.duration_us = tracer_->sink()->now_us() - start_us_;
    tracer_->sink()->record(e);
  }

 private:
  StageTracer* tracer_ = nullptr;
  Stage stage_ = Stage::kValidate;
  double start_us_ = 0.0;
};

#endif  // RADLOC_OBS_OFF

}  // namespace radloc::obs

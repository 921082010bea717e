#include "radloc/obs/trace.hpp"

#include <stdexcept>

namespace radloc::obs {

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kValidate: return "validate";
    case Stage::kFusionQuery: return "fusion_query";
    case Stage::kWeightUpdate: return "weight_update";
    case Stage::kResample: return "resample";
    case Stage::kMeanShift: return "mean_shift";
    case Stage::kBudgetAdapt: return "budget_adapt";
    case Stage::kDrain: return "drain";
    case Stage::kIndex: return "index";
  }
  return "unknown";
}

TraceSink::TraceSink(std::size_t capacity, std::uint64_t sample_interval)
    : interval_(sample_interval), epoch_(std::chrono::steady_clock::now()) {
  if (capacity == 0) throw std::invalid_argument("trace ring capacity must be non-zero");
  ring_.resize(capacity);
}

double TraceSink::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceSink::record(const TraceEvent& e) {
  const std::lock_guard lock(mu_);
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) {
    ++size_;
  } else {
    ++dropped_;  // overwrote the oldest undrained event
  }
  ++recorded_;
}

std::vector<TraceEvent> TraceSink::drain() {
  const std::lock_guard lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  size_ = 0;
  return out;
}

std::uint64_t TraceSink::recorded() const {
  const std::lock_guard lock(mu_);
  return recorded_;
}

std::uint64_t TraceSink::dropped() const {
  const std::lock_guard lock(mu_);
  return dropped_;
}

}  // namespace radloc::obs

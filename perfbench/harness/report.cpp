#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "harness.hpp"
#include "radloc/simd/simd.hpp"

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  radloc::SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ULL * (a + 1)) ^
                        (0xC2B2AE3D27D4EB4FULL * (b + 1)));
  sm.next();
  return sm.next();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects non-finite values
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += quoted(k) + ": ";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += number(v);
  return *this;
}

Json& Json::integer(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += quoted(v);
  return *this;
}

Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::array(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += number(v[i]);
  }
  body_ += "]";
  return *this;
}

Json& Json::object(const std::string& k, const Json& v) {
  key(k);
  body_ += v.text();
  return *this;
}

std::string Json::text() const { return "{" + body_ + "}"; }

std::uint64_t SpanLog::add(const std::string& name, Clock::time_point start,
                           Clock::time_point end, std::uint64_t parent, std::uint64_t items) {
  Span s;
  s.name = name;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.start_us = 1e6 * seconds_between(origin_, start);
  s.end_us = 1e6 * seconds_between(origin_, end);
  s.items = items;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

double SpanLog::mean_us_per_item(const std::string& name) const {
  double total = 0.0;
  std::uint64_t items = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    total += s.end_us - s.start_us;
    items += s.items;
  }
  return items > 0 ? total / static_cast<double>(items) : 0.0;
}

void SpanLog::write_jsonl(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << Json()
               .str("name", s.name)
               .integer("id", s.id)
               .integer("parent", s.parent)
               .num("start_us", s.start_us)
               .num("end_us", s.end_us)
               .integer("items", s.items)
               .text()
        << "\n";
  }
}

void Accuracy::add(const radloc::MatchResult& m) {
  for (const auto& e : m.error) {
    if (e) {
      err_sum += *e;
      ++matched;
    }
  }
  false_pos += m.false_positives;
  false_neg += m.false_negatives;
  truth += m.error.size();
}

void Accuracy::merge(const Accuracy& o) {
  err_sum += o.err_sum;
  matched += o.matched;
  false_pos += o.false_pos;
  false_neg += o.false_neg;
  truth += o.truth;
}

Json Accuracy::json() const {
  return Json()
      .num("err_sum", err_sum)
      .integer("matched", matched)
      .integer("false_pos", false_pos)
      .integer("false_neg", false_neg)
      .integer("truth", truth);
}

Json provenance(const Options& opt) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return Json()
      .integer("threads", opt.threads)
      .str("simd_detected", radloc::simd::tier_name(radloc::simd::detected_tier()))
      .str("simd_active", radloc::simd::tier_name(radloc::simd::active_tier()))
      .str("compiler", compiler)
      .str("build_type", PERFBENCH_BUILD_TYPE);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench

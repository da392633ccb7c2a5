#include "lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {
namespace {

// The span opened last on this thread and still open (0 = none).
thread_local uint64_t current_parent = 0;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

size_t NearestRankIndex(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - NearestRankIndex(n, p);
}

size_t MinSamplesForTail(double p) {
  size_t n = kMinTailSamples + 1;
  while (SamplesBeyond(n, p) < kMinTailSamples) {
    ++n;
  }
  return n;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    std::fprintf(stderr, "perfbench: median of no samples\n");
    std::abort();
  }
  std::sort(samples.begin(), samples.end());
  return samples[NearestRankIndex(samples.size(), 0.5)];
}

std::optional<double> TailPercentile(std::vector<double> samples, double p) {
  if (SamplesBeyond(samples.size(), p) < kMinTailSamples) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  return samples[NearestRankIndex(samples.size(), p)];
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

void OrderFreeDigest::Add(uint64_t key, uint64_t item_hash) {
  value_ += SplitMix64(SplitMix64(key) ^ item_hash);
  ++count_;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) {
    index_of[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index_of.find(s.parent);
    if (s.parent != 0 && it != index_of.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = lo;  // children are merged left to right from here
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Scope&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)),
      index_(other.index_),
      id_(other.id_),
      saved_parent_(other.saved_parent_) {}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    current_parent = saved_parent_;
    tracer_->Close(index_);
  }
}

Tracer::Scope Tracer::Open(std::string name, uint64_t request, bool active) {
  if (!enabled_ || !active) {
    return Scope(nullptr, 0, 0, 0);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.id = next_id_++;
  span.parent = current_parent;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const uint64_t saved = current_parent;
  current_parent = spans_.back().id;
  return Scope(this, spans_.size() - 1, current_parent, saved);
}

void Tracer::Close(size_t index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end_ns = now;
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

uint64_t Tracer::Record(std::string name, int64_t start_ns, int64_t end_ns, uint64_t parent,
                        uint64_t request, uint64_t id) {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Span span{std::move(name), id != 0 ? id : next_id_++, parent, request, start_ns, end_ns};
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::MedianMs(std::string_view name) const {
  std::vector<double> ms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      if (s.name == name) {
        ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
      }
    }
  }
  return ms.empty() ? 0.0 : Median(std::move(ms));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfTimesNs(all);
  const int64_t origin = all.empty() ? 0 : all.front().start_ns;
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << JsonEscape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << FormatNumber(static_cast<double>(s.start_ns - origin) * 1e-3)
        << ",\"dur\":" << FormatNumber(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request
        << ",\"self_us\":" << FormatNumber(static_cast<double>(self[i]) * 1e-3) << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string Tracer::SelfTimeTable() const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfTimesNs(all);
  struct Row {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < all.size(); ++i) {
    Row& r = rows[all[i].name];
    ++r.count;
    r.total_ms += static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-6;
    r.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-48s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
  out << line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "%-48s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(r.count), r.total_ms, r.self_ms);
    out << line;
  }
  return out.str();
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void MetricSet::Add(const std::string& name, double value, const std::string& unit) {
  if (!ValidMetricName(name) || values_.count(name) > 0 || !std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: bad metric %s = %g\n", name.c_str(), value);
    std::abort();
  }
  values_[name] = Value{value, unit};
}

double MetricSet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

std::string MetricSet::ResultLine(bool correct, uint64_t attempted, uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : values_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << FormatNumber(v.value)
        << ", \"unit\": \"" << JsonEscape(v.unit) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace perfbench

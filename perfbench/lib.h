// Helpers of the repo benchmark (perfbench): the percentile rule, an
// order-independent digest, in-memory spans with self time, and the metric
// set that becomes the result line. Nothing here calls into the library.

#ifndef PERFBENCH_LIB_H_
#define PERFBENCH_LIB_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// ---- Percentiles -------------------------------------------------------------

// A tail percentile is reported only when at least this many samples lie
// beyond it.
constexpr size_t kMinTailSamples = 10;

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

// Smallest sample count whose p-th percentile has kMinTailSamples beyond it.
size_t MinSamplesForTail(double p);

// Median (nearest rank) of a non-empty sample set.
double Median(std::vector<double> samples);

// Nearest-rank p-th percentile, or nullopt when fewer than kMinTailSamples
// samples lie beyond it.
std::optional<double> TailPercentile(std::vector<double> samples, double p);

// ---- Digests -----------------------------------------------------------------

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h = 1469598103934665603ull);

// Digest of a set of (key, item hash) pairs that does not depend on the order
// they are added in: each pair is mixed to 64 bits and the mixes are summed.
class OrderFreeDigest {
 public:
  void Add(uint64_t key, uint64_t item_hash);
  uint64_t value() const { return value_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t value_ = 0;
  uint64_t count_ = 0;
};

// ---- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // serving spans of one request share it; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Self time of every span (same order as `spans`): its duration minus the
// part of its interval that its children cover (overlapping children count
// once; child time outside the parent is ignored).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

int64_t NowNs();

// Records spans in memory. Thread-safe; a span opened with Open() becomes
// the parent of spans opened later on the same thread until it closes.
// Disabled (the untraced run), Open() records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Scope&& other) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope();

    // The span's id; 0 when nothing is recorded.
    uint64_t id() const { return id_; }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, size_t index, uint64_t id, uint64_t saved_parent)
        : tracer_(tracer), index_(index), id_(id), saved_parent_(saved_parent) {}
    Tracer* tracer_;
    size_t index_;
    uint64_t id_;
    uint64_t saved_parent_;
  };

  bool enabled() const { return enabled_; }

  // `active` = false skips recording this one span (untraced half of an
  // alternating overhead comparison).
  Scope Open(std::string name, uint64_t request = 0, bool active = true);

  // An id for a span recorded later with Record(); its children can name it
  // as their parent before it is recorded.
  uint64_t NewId();

  // A span with explicit times and parent (e.g. a request from its due time).
  // `id` = 0 allocates one. Returns the span's id.
  uint64_t Record(std::string name, int64_t start_ns, int64_t end_ns, uint64_t parent = 0,
                  uint64_t request = 0, uint64_t id = 0);

  std::vector<Span> spans() const;

  // Median duration of the spans called `name`; 0 when there are none.
  double MedianMs(std::string_view name) const;

  // Writes the spans as Chrome-trace JSON (ui.perfetto.dev), with each span's
  // self time in its args.
  bool WriteChromeTrace(const std::string& path) const;

  // Per span name: count, total ms and self ms, one line each.
  std::string SelfTimeTable() const;

 private:
  void Close(size_t index);

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  uint64_t next_id_ = 1;     // guarded by mutex_
};

// ---- Metrics -----------------------------------------------------------------

// A metric name starts with a letter or digit and has at most 64 letters,
// digits, '_', '.' and '-'.
bool ValidMetricName(std::string_view name);

// The metrics of one run, printed as the last line of stdout.
class MetricSet {
 public:
  // Aborts on an invalid or repeated name or a non-finite value: the result
  // line must never carry either.
  void Add(const std::string& name, double value, const std::string& unit);

  // The value of `name`; 0 when it was not added.
  double Get(const std::string& name) const;

  std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> values_;
};

// Peak resident set of this process (VmHWM) in MB; 0 if unreadable.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_LIB_H_

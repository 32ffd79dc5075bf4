// Shared plumbing of the benchmark driver: clocks, order statistics, the
// metric sheet and check outcome a run returns, and the OpenMP thread budget.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

/// Logical CPUs the process may run on.
int nproc();

/// Set the calling thread's OpenMP team size (no-op without OpenMP).
void set_omp_threads(int n);
/// The calling thread's OpenMP team size (1 without OpenMP).
int omp_threads();

/// One named, unit-tagged number of a run's result sheet.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric sheet; later set() of a name replaces its value.
class Sheet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// What a workload run hands back to main(): its metric sheet, the count of
/// checked units (steps, byte classes, requests, replies) and how many of
/// them failed a correctness check, plus human-readable failure notes.
struct Outcome {
  Sheet sheet;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (notes.size() < 20) notes.push_back(what);
    }
  }
};

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Format a double with all its digits (round-trip precision).
std::string fmt_double(double v);
/// JSON string literal (quotes and escapes).
std::string json_string(const std::string& s);

}  // namespace perfbench

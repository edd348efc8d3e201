// Shared pieces of the benchmark driver: command-line arguments, the
// driver's own layer spans, quantiles, /proc readers and the result
// object every workload prints as its last stdout line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "serve/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;     ///< analyze | serve | stages
  std::uint64_t seed = 1;
  double seconds = 10.0;    ///< measured time (set-up not included)
  bool trace = false;       ///< per-layer run: untraced phase + traced phase
  bool setup_only = false;  ///< one fresh set-up, then exit (set-up probes)
  std::string root = ".";   ///< repository checkout holding the specs
  std::string daemon;       ///< serve: path of the streamcalc binary
  std::string run_dir = ".bench_build/run";  ///< sockets and daemon logs
};

/// Collects failures and metrics; print() writes the one-line JSON result.
class Result {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation, keeping the first few messages.
  void fail(const std::string& what);
  /// Counts `count` failed operations described by the first `messages`.
  void fail(const std::vector<std::string>& messages, std::uint64_t count);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void metric(const std::string& name, double value);
  void note(const std::string& name, double value);

  void print() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
  streamcalc::serve::Json::Object metrics_;
  streamcalc::serve::Json::Object notes_;
};

/// The driver's own spans around each public layer call. Off: the call
/// runs bare. On: each call's duration is kept in memory under its layer
/// name and aggregated when the workload ends.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  bool on() const { return on_; }

  template <class F>
  decltype(auto) span(const std::string& layer, F&& f) {
    if (!on_) return f();
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      record(layer, us_between(t0, Clock::now()));
    } else {
      decltype(auto) out = f();
      record(layer, us_between(t0, Clock::now()));
      return out;
    }
  }

  void record(const std::string& layer, double us) {
    samples_[layer].push_back(us);
    totals_[layer] += us;
  }
  /// Every call's duration, in call order.
  const std::vector<double>& samples(const std::string& layer) const;
  /// Summed duration per layer so far.
  const std::map<std::string, double>& totals() const { return totals_; }
  double median_us(const std::string& layer) const;

 private:
  bool on_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> totals_;
};

// A shared host's cores switch, every few tens of milliseconds, between
// full speed and a state about 1.7x slower (other tenants load their
// hardware siblings), and the share of slow time drifts over minutes. The
// single-threaded workloads therefore move over every CPU in turn and
// report the fastest share of their repeated, equal units of work: the
// speed of the code with the neighbours least in the way.

/// Moves the calling thread over the CPUs it may run on, one per call.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();  ///< restores the original affinity
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the next CPU.
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Share of the repetitions the fastest-share estimates keep.
constexpr double kFastShare = 0.02;

/// Indices of the samples at or below the `share`-quantile of `times`.
std::vector<std::size_t> fastest(const std::vector<double>& times,
                                 double share);

/// A workload of units (a corpus position, a chunk) each repeated many
/// times: each unit's time is the mean of its fastest kFastShare of
/// repetitions (unit_us), and per_s is units per second at those times.
struct Fastest {
  double per_s = 0.0;
  std::vector<double> unit_us;
};
Fastest fastest_repetitions(const std::vector<std::vector<double>>& us);

/// Share of the set-up probes (fresh processes) the set-up figures keep.
constexpr double kProbeShare = 0.25;

/// Mean of the round(share * n) smallest values, and at least one; 0 for
/// no values.
double fastest_mean(std::vector<double> values, double share);

/// Times one fixed piece of work that uses no streamcalc code (sorting
/// 8192 pseudo-random integers) and returns µs. Its fastest-share time,
/// reported as `host.reference_us`, reads the host's speed during a run:
/// two results whose reference differs were taken on a faster or slower
/// host, whatever the code did.
double reference_loop_us();

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> values, double q);

/// Fields of /proc/<pid> ("self" for this process).
double proc_status_kb(const std::string& pid, const std::string& field);
double proc_map_count(const std::string& pid);
double proc_fd_count(const std::string& pid);

int run_analyze(const Args& args);
int run_serve(const Args& args);
int run_stages(const Args& args);

}  // namespace perfbench

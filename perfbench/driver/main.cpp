// Benchmark driver: runs one workload against the streamcalc libraries
// (analyze, stages) or a spawned `streamcalc serve` daemon (serve) and
// prints one JSON object as its last stdout line. perfbench/run.py builds
// and invokes it; see perfbench/README.md.
//
//   perfbench_driver <analyze|serve|stages> --seed N --seconds S
//       [--trace 0|1] [--setup-only] [--root DIR] [--daemon PATH]
//       [--run-dir DIR]
#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

using streamcalc::serve::Json;

void Result::fail(const std::string& what) {
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Result::fail(const std::vector<std::string>& messages,
                  std::uint64_t count) {
  for (const std::string& m : messages) {
    if (messages_.size() < 8) messages_.push_back(m);
  }
  failed_ += count;
}

void Result::metric(const std::string& name, double value) {
  metrics_[name] = Json(value);
}

void Result::note(const std::string& name, double value) {
  notes_[name] = Json(value);
}

void Result::print() const {
  Json::Array messages;
  for (const std::string& m : messages_) messages.emplace_back(m);
  Json::Object out;
  out.emplace("attempted", Json(static_cast<double>(attempted_)));
  out.emplace("failed", Json(static_cast<double>(failed_)));
  out.emplace("failures", Json(std::move(messages)));
  out.emplace("metrics", Json(metrics_));
  out.emplace("notes", Json(notes_));
  std::printf("%s\n", Json(std::move(out)).dump().c_str());
  std::fflush(stdout);
}

const std::vector<double>& Spans::samples(const std::string& layer) const {
  static const std::vector<double> kNone;
  const auto it = samples_.find(layer);
  return it == samples_.end() ? kNone : it->second;
}

double Spans::median_us(const std::string& layer) const {
  return quantile(samples(layer), 0.5);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
  if (cpus_.empty()) cpus_.push_back(-1);  // affinity unknown: do not move
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) {
    if (cpu >= 0) CPU_SET(cpu, &set);
  }
  if (cpus_.front() >= 0) (void)::sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  const int cpu = cpus_[turn_++ % cpus_.size()];
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof set, &set);
}

std::vector<std::size_t> fastest(const std::vector<double>& times,
                                 double share) {
  const double cut = quantile(times, share);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] <= cut) out.push_back(i);
  }
  return out;
}

Fastest fastest_repetitions(const std::vector<std::vector<double>>& us) {
  Fastest f;
  double cycle_us = 0.0;
  for (const std::vector<double>& reps : us) {
    const std::vector<std::size_t> fast = fastest(reps, kFastShare);
    if (fast.empty()) continue;
    double sum = 0.0;
    for (const std::size_t r : fast) sum += reps[r];
    f.unit_us.push_back(sum / static_cast<double>(fast.size()));
    cycle_us += f.unit_us.back();
  }
  f.per_s = static_cast<double>(f.unit_us.size()) / (cycle_us * 1e-6);
  return f;
}

double fastest_mean(std::vector<double> values, double share) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::lround(share * static_cast<double>(values.size()))),
      1, values.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < keep; ++i) sum += values[i];
  return sum / static_cast<double>(keep);
}

double reference_loop_us() {
  std::vector<std::uint64_t> v(8192);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  const Clock::time_point t0 = Clock::now();
  std::sort(v.begin(), v.end());
  const double us = us_between(t0, Clock::now());
  return v.front() <= v.back() ? us : -1.0;  // reads the sorted data
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double proc_status_kb(const std::string& pid, const std::string& field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0.0;
}

double proc_map_count(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/maps");
  std::string line;
  double n = 0.0;
  while (std::getline(in, line)) n += 1.0;
  return n;
}

double proc_fd_count(const std::string& pid) {
  DIR* dir = ::opendir(("/proc/" + pid + "/fd").c_str());
  if (dir == nullptr) return 0.0;
  double n = 0.0;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') n += 1.0;
  }
  ::closedir(dir);
  return n;
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver <analyze|serve|stages> --seed N "
               "--seconds S [--trace 0|1] [--setup-only] [--root DIR] "
               "[--daemon PATH] [--run-dir DIR]\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  perfbench::Args args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--root" && has_value) {
      args.root = argv[++i];
    } else if (flag == "--daemon" && has_value) {
      args.daemon = argv[++i];
    } else if (flag == "--run-dir" && has_value) {
      args.run_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(args.seconds > 0.0)) return usage();
  try {
    if (args.workload == "analyze") return perfbench::run_analyze(args);
    if (args.workload == "serve") return perfbench::run_serve(args);
    if (args.workload == "stages") return perfbench::run_stages(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return usage();
}

// Load generator for the admission-control daemon: N client threads each
// drive a tight admit/release loop against one scenario and report
// sustained accepted QPS plus client-observed admit latency quantiles.
//
// Two modes:
//   * self-hosted (default): spins an in-process Server on a temporary
//     unix socket loaded with --spec (the quickstart pipeline by default),
//     so `bench/serve_qps --json BENCH_serve.json` is reproducible with no
//     setup;
//   * --socket <path>: connects to an externally started daemon (the CI
//     serve-smoke job runs this against `streamcalc serve`).
//
// Usage:
//   serve_qps [--socket <path>] [--spec <file>] [--threads 1,2,4]
//             [--seconds N] [--json <path>] [--shutdown]
//
// Exit status is nonzero when any thread count sustains zero accepted
// admits — the smoke-job signal that the daemon wedged.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "report.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace {

using streamcalc::serve::Client;
using streamcalc::util::Json;

struct Options {
  std::string socket_path;  ///< empty: self-host an in-process server
  std::string spec_path = std::string(SC_SPEC_DIR) + "/quickstart.scspec";
  std::vector<int> thread_counts = {1, 2, 4};
  double seconds = 2.0;
  std::string json_path;
  bool send_shutdown = false;
};

std::vector<int> parse_thread_list(const std::string& text) {
  std::vector<int> counts;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string tok =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const int n = std::atoi(tok.c_str());
    if (n > 0) counts.push_back(n);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return counts;
}

Json admit_request(const std::string& tenant) {
  Json::Object obj;
  obj.emplace("op", Json("admit"));
  obj.emplace("tenant", Json(tenant));
  obj.emplace("scenario", Json("quickstart"));
  obj.emplace("id", Json("f"));
  // A small token bucket against a 100 MiB/s source: always admissible,
  // so the loop measures the cached-beta hot path, not rejections.
  obj.emplace("rate", Json(1.0e6));
  obj.emplace("burst", Json(16384.0));
  obj.emplace("target", Json(0.5));
  return Json(std::move(obj));
}

Json release_request(const std::string& tenant) {
  Json::Object obj;
  obj.emplace("op", Json("release"));
  obj.emplace("tenant", Json(tenant));
  obj.emplace("id", Json("f"));
  return Json(std::move(obj));
}

struct WorkerResult {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::vector<double> admit_us;  ///< client-observed round-trip latency
};

WorkerResult run_worker(const std::string& socket_path, int worker,
                        double seconds) {
  WorkerResult result;
  Client client = Client::connect_unix(socket_path);
  const std::string tenant = "bench_w" + std::to_string(worker);
  const Json admit = admit_request(tenant);
  const Json release = release_request(tenant);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  while (std::chrono::steady_clock::now() < deadline) {
    const auto t0 = std::chrono::steady_clock::now();
    const Json reply = client.request(admit);
    const auto t1 = std::chrono::steady_clock::now();
    result.admit_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (reply.bool_or("admitted", false)) {
      ++result.accepted;
    } else {
      ++result.rejected;
    }
    (void)client.request(release);
  }
  return result;
}

double quantile(std::vector<double>& sorted_in_place, double q) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const double rank =
      q * static_cast<double>(sorted_in_place.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi =
      std::min(lo + 1, sorted_in_place.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_in_place[lo] * (1.0 - frac) + sorted_in_place[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamcalc;

  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      opts.socket_path = argv[++i];
    } else if (arg == "--spec" && i + 1 < argc) {
      opts.spec_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      opts.thread_counts = parse_thread_list(argv[++i]);
    } else if (arg == "--seconds" && i + 1 < argc) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--json" && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (arg == "--shutdown") {
      opts.send_shutdown = true;
    } else {
      std::fprintf(stderr,
                   "usage: serve_qps [--socket <path>] [--spec <file>] "
                   "[--threads 1,2,4] [--seconds N] [--json <path>] "
                   "[--shutdown]\n");
      return 2;
    }
  }
  if (opts.thread_counts.empty() || opts.seconds <= 0.0) {
    std::fprintf(stderr, "serve_qps: nothing to measure\n");
    return 2;
  }

  bench::banner("serve_qps",
                "admission daemon load generator: accepted QPS and admit "
                "latency quantiles per client thread count");

  // Self-host when no endpoint was given: in-process daemon, temp socket.
  std::unique_ptr<serve::Server> hosted;
  std::string socket_path = opts.socket_path;
  if (socket_path.empty()) {
    socket_path = "/tmp/serve_qps_" + std::to_string(::getpid()) + ".sock";
    serve::ServerConfig config;
    config.socket_path = socket_path;
    config.spec_paths = {opts.spec_path};
    hosted = std::make_unique<serve::Server>(config);
    hosted->start();
    std::printf("self-hosted daemon on unix:%s (%s)\n", socket_path.c_str(),
                opts.spec_path.c_str());
  } else {
    std::printf("driving external daemon on unix:%s\n", socket_path.c_str());
  }

  bench::JsonReport report;
  util::Table table({"threads", "accepted QPS", "rejected", "admit p50 us",
                     "admit p99 us"});
  bool any_zero = false;

  for (const int threads : opts.thread_counts) {
    std::vector<WorkerResult> results(static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    const auto wall0 = std::chrono::steady_clock::now();
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        results[static_cast<std::size_t>(w)] =
            run_worker(socket_path, w, opts.seconds);
      });
    }
    for (auto& t : workers) t.join();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();

    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::vector<double> admit_us;
    for (const WorkerResult& r : results) {
      accepted += r.accepted;
      rejected += r.rejected;
      admit_us.insert(admit_us.end(), r.admit_us.begin(), r.admit_us.end());
    }
    const double qps = static_cast<double>(accepted) / wall_s;
    const double p50 = quantile(admit_us, 0.50);
    const double p99 = quantile(admit_us, 0.99);
    if (accepted == 0) any_zero = true;

    table.add_row({std::to_string(threads),
                   util::format_significant(qps),
                   std::to_string(rejected),
                   util::format_significant(p50),
                   util::format_significant(p99)});

    const std::string suffix = ".threads" + std::to_string(threads);
    // QPS rows use unit "count" so bench_compare's time gate skips them
    // (throughput regressions would read inverted); latency rows are the
    // gated time series.
    report.add("serve.qps" + suffix, qps, "count");
    report.add("serve.admit.p50_us" + suffix, p50, "us");
    report.add("serve.admit.p99_us" + suffix, p99, "us");
  }

  std::printf("%s", table.render().c_str());

  if (opts.send_shutdown) {
    Client client = Client::connect_unix(socket_path);
    Json::Object obj;
    obj.emplace("op", Json("shutdown"));
    (void)client.request(Json(std::move(obj)));
    std::printf("shutdown verb sent\n");
  }
  if (hosted != nullptr) hosted->stop();

  if (!opts.json_path.empty()) report.write(opts.json_path);
  if (any_zero) {
    std::fprintf(stderr, "serve_qps: zero accepted admits — daemon wedged?\n");
    return 1;
  }
  return 0;
}

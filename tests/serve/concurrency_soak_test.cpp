// Concurrency soak for the admission engine and the daemon: many threads
// hammer admit/release (and catalog reloads) against shared tenants, and
// the resulting state must be *linearizable* — every reply carries the
// tenant sequence number the operation was applied at, so the concurrent
// history can be replayed serially in sequence order against a fresh
// engine and must reproduce the exact same decisions, bounds, and final
// flow sets.
//
// Runs under the `concurrency` CTest label (the tsan preset builds and
// runs these; see .github/workflows/ci.yml).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli/spec.hpp"
#include "serve/admission.hpp"
#include "serve/catalog.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace streamcalc::serve {
namespace {

using util::Json;
using util::json_parse;

constexpr std::uint64_t kSeed = 0x50a0cafeULL;

const char* kChainSpecA =
    "[source]\nrate = 100 MiB/s\nburst = 64 KiB\npacket = 64 KiB\n"
    "[node a]\nblock_in = 64 KiB\nrate_min = 200 MiB/s\n"
    "rate_avg = 220 MiB/s\nrate_max = 240 MiB/s\n"
    "[node b]\nblock_in = 64 KiB\nrate_min = 150 MiB/s\n"
    "rate_avg = 165 MiB/s\nrate_max = 180 MiB/s\n";

const char* kChainSpecB =
    "[source]\nrate = 200 MiB/s\nburst = 128 KiB\npacket = 64 KiB\n"
    "[node only]\nblock_in = 64 KiB\nrate_min = 400 MiB/s\n"
    "rate_avg = 420 MiB/s\nrate_max = 440 MiB/s\n";

const char* kDagSpec =
    "[source]\nrate = 120 MiB/s\nburst = 0 B\npacket = 64 KiB\n"
    "[node ingest]\nblock_in = 64 KiB\nrate_min = 500 MiB/s\n"
    "rate_avg = 550 MiB/s\nrate_max = 600 MiB/s\n"
    "[node video]\nblock_in = 64 KiB\nrate_min = 90 MiB/s\n"
    "rate_avg = 100 MiB/s\nrate_max = 115 MiB/s\n"
    "[node audio]\nblock_in = 64 KiB\nrate_min = 150 MiB/s\n"
    "rate_avg = 165 MiB/s\nrate_max = 180 MiB/s\n"
    "[node mux]\nblock_in = 64 KiB\nrate_min = 250 MiB/s\n"
    "rate_avg = 270 MiB/s\nrate_max = 290 MiB/s\n"
    "[topology]\nentry = ingest 1.0\nedge = ingest video 0.6\n"
    "edge = ingest audio 0.4\nedge = video mux 1.0\n"
    "edge = audio mux 1.0\n";

std::vector<std::pair<std::string, cli::Spec>> soak_specs() {
  return {{"alpha", cli::parse_spec(kChainSpecA)},
          {"beta", cli::parse_spec(kChainSpecB)},
          {"forkjoin", cli::parse_spec(kDagSpec)}};
}

const char* kTenants[] = {"t0", "t1", "t2", "t3"};
const char* kScenarioOf[] = {"alpha", "beta", "forkjoin", "alpha"};

FlowSpec soak_flow(util::Xoshiro256& rng, bool dag) {
  FlowSpec flow;
  flow.rate =
      util::DataRate::mib_per_sec(1.0 + static_cast<double>(rng() % 40));
  flow.burst =
      util::DataSize::bytes(65536.0 * static_cast<double>(1 + rng() % 16));
  flow.delay_target = util::Duration::seconds(
      (rng() % 2 == 0) ? 0.002 + 0.001 * static_cast<double>(rng() % 50)
                       : 1.0);
  if (dag) flow.entry = "ingest";
  return flow;
}

/// One applied (state-changing) operation, as witnessed by its reply.
struct AppliedOp {
  std::string tenant;
  std::uint64_t seq = 0;
  bool is_admit = false;
  std::string flow_id;
  FlowSpec flow;
  bool admitted = false;       // admit only
  double delay_bound_s = 0.0;  // decision's bound
};

/// Replays `ops` (already sorted by per-tenant seq) against a fresh
/// engine and checks decisions + bounds match the concurrent run exactly.
void replay_and_compare(
    const std::vector<AppliedOp>& ops,
    const std::map<std::string, TenantSnapshot>& final_state) {
  auto catalog = std::make_shared<Catalog>(make_snapshot(1, soak_specs()));
  AdmissionEngine replay(catalog, util::Context{});

  std::map<std::string, std::vector<AppliedOp>> per_tenant;
  for (const AppliedOp& op : ops) per_tenant[op.tenant].push_back(op);
  for (auto& [tenant, history] : per_tenant) {
    std::sort(history.begin(), history.end(),
              [](const AppliedOp& a, const AppliedOp& b) {
                return a.seq < b.seq;
              });
    std::string scenario;
    for (std::size_t t = 0; t < 4; ++t) {
      if (kTenants[t] == tenant) scenario = kScenarioOf[t];
    }
    // Sequence numbers of applied ops are exactly 1..N: nothing lost,
    // nothing duplicated.
    for (std::size_t i = 0; i < history.size(); ++i) {
      ASSERT_EQ(history[i].seq, i + 1) << tenant << " op " << i;
    }
    for (const AppliedOp& op : history) {
      if (op.is_admit) {
        const Decision d =
            replay.admit(tenant, scenario, op.flow_id, op.flow);
        ASSERT_TRUE(d.ok) << tenant << " seq " << op.seq << ": " << d.error;
        // The concurrent run applied it, so the serial replay from the
        // same per-tenant state must admit it with the same bound.
        EXPECT_TRUE(d.admitted) << tenant << " seq " << op.seq;
        EXPECT_EQ(d.delay_bound.in_seconds(), op.delay_bound_s)
            << tenant << " seq " << op.seq;
        EXPECT_EQ(d.seq, op.seq);
      } else {
        const Decision d = replay.release(tenant, op.flow_id);
        ASSERT_TRUE(d.ok) << tenant << " seq " << op.seq << ": " << d.error;
        EXPECT_EQ(d.seq, op.seq);
      }
    }
    // Final state equals the serial replay's.
    const auto it = final_state.find(tenant);
    ASSERT_NE(it, final_state.end());
    TenantSnapshot snap;
    ASSERT_TRUE(replay.query(tenant, snap).ok);
    ASSERT_EQ(snap.flows.size(), it->second.flows.size()) << tenant;
    for (std::size_t i = 0; i < snap.flows.size(); ++i) {
      EXPECT_EQ(snap.flows[i].first, it->second.flows[i].first);
      EXPECT_EQ(snap.flows[i].second.rate, it->second.flows[i].second.rate);
      EXPECT_EQ(snap.flows[i].second.burst,
                it->second.flows[i].second.burst);
    }
    EXPECT_EQ(snap.seq, it->second.seq) << tenant;
    EXPECT_EQ(snap.delay_bound, it->second.delay_bound) << tenant;
  }
}

TEST(ConcurrencySoak, EngineUnderContentionMatchesSerialReplay) {
  auto catalog = std::make_shared<Catalog>(make_snapshot(1, soak_specs()));
  AdmissionEngine engine(catalog, util::Context{});

  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 60;

  std::vector<std::vector<AppliedOp>> applied(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);

  // One publisher swaps in identical snapshots under the workers' feet:
  // reloads must never corrupt per-tenant state or change decisions
  // (the specs are the same; only the epoch moves).
  std::atomic<bool> done{false};
  workers.emplace_back([&catalog, &done] {
    std::uint64_t epoch = 1;
    while (!done.load()) {
      catalog->publish(make_snapshot(++epoch, soak_specs()));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&engine, &applied, t] {
      util::Xoshiro256 rng(kSeed + static_cast<std::uint64_t>(t));
      std::vector<std::pair<std::string, std::string>> mine;  // (tenant,id)
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::size_t ti = rng() % 4;
        const std::string tenant = kTenants[ti];
        const bool dag = std::string(kScenarioOf[ti]) == "forkjoin";
        if (!mine.empty() && rng() % 3 == 0) {
          const std::size_t pick = rng() % mine.size();
          const auto [rt, rid] = mine[pick];
          const Decision d = engine.release(rt, rid);
          ASSERT_TRUE(d.ok) << d.error;
          AppliedOp record;
          record.tenant = rt;
          record.seq = d.seq;
          record.flow_id = rid;
          record.delay_bound_s = d.delay_bound.in_seconds();
          applied[static_cast<std::size_t>(t)].push_back(record);
          mine.erase(mine.begin() + static_cast<long>(pick));
          continue;
        }
        const std::string id =
            "w" + std::to_string(t) + "_f" + std::to_string(op);
        const FlowSpec flow = soak_flow(rng, dag);
        const Decision d =
            engine.admit(tenant, kScenarioOf[ti], id, flow);
        ASSERT_TRUE(d.ok) << d.error;
        if (d.admitted) {
          AppliedOp record;
          record.tenant = tenant;
          record.seq = d.seq;
          record.is_admit = true;
          record.flow_id = id;
          record.flow = flow;
          record.admitted = true;
          record.delay_bound_s = d.delay_bound.in_seconds();
          applied[static_cast<std::size_t>(t)].push_back(record);
          mine.emplace_back(tenant, id);
        }
      }
    });
  }
  for (std::size_t i = 1; i < workers.size(); ++i) workers[i].join();
  done.store(true);
  workers[0].join();

  std::vector<AppliedOp> all;
  for (const auto& chunk : applied) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  ASSERT_FALSE(all.empty());

  std::map<std::string, TenantSnapshot> final_state;
  for (const char* tenant : kTenants) {
    TenantSnapshot snap;
    ASSERT_TRUE(engine.query(tenant, snap).ok);
    final_state.emplace(tenant, snap);
  }
  replay_and_compare(all, final_state);
}

TEST(ConcurrencySoak, DaemonUnderConcurrentClientsMatchesSerialReplay) {
  ServerConfig config;
  config.socket_path = ::testing::TempDir() + "/serve_soak_" +
                       std::to_string(::getpid()) + ".sock";
  Server server(config,
                std::make_shared<Catalog>(make_snapshot(1, soak_specs())));
  server.start();

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 40;
  std::vector<std::vector<AppliedOp>> applied(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&config, &applied, t] {
      Client client = Client::connect_unix(config.socket_path);
      util::Xoshiro256 rng(kSeed ^
                           (std::uint64_t{0x777} + static_cast<std::uint64_t>(t)));
      std::vector<std::pair<std::string, std::string>> mine;
      for (int op = 0; op < kOpsPerClient; ++op) {
        const std::size_t ti = rng() % 4;
        if (rng() % 10 == 0) {
          // Sprinkle reload attempts; with an injected catalog they are
          // clean errors, and must never disturb admission state.
          (void)client.request(json_parse("{\"op\":\"reload\"}").value);
          continue;
        }
        if (!mine.empty() && rng() % 3 == 0) {
          const std::size_t pick = rng() % mine.size();
          const auto [rt, rid] = mine[pick];
          Json::Object req;
          req.emplace("op", Json("release"));
          req.emplace("tenant", Json(rt));
          req.emplace("id", Json(rid));
          const Json reply = client.request(Json(std::move(req)));
          ASSERT_TRUE(reply.bool_or("ok", false))
              << reply.string_or("error", "");
          AppliedOp record;
          record.tenant = rt;
          record.seq =
              static_cast<std::uint64_t>(reply.number_or("seq", 0));
          record.flow_id = rid;
          record.delay_bound_s = reply.number_or("delay_bound", 0.0);
          applied[static_cast<std::size_t>(t)].push_back(record);
          mine.erase(mine.begin() + static_cast<long>(pick));
          continue;
        }
        const std::string tenant = kTenants[ti];
        const bool dag = std::string(kScenarioOf[ti]) == "forkjoin";
        const std::string id =
            "c" + std::to_string(t) + "_f" + std::to_string(op);
        const FlowSpec flow = soak_flow(rng, dag);
        Json::Object req;
        req.emplace("op", Json("admit"));
        req.emplace("tenant", Json(tenant));
        req.emplace("scenario", Json(kScenarioOf[ti]));
        req.emplace("id", Json(id));
        req.emplace("rate", Json(flow.rate.in_bytes_per_sec()));
        req.emplace("burst", Json(flow.burst.in_bytes()));
        req.emplace("target", Json(flow.delay_target.in_seconds()));
        if (!flow.entry.empty()) req.emplace("entry", Json(flow.entry));
        const Json reply = client.request(Json(std::move(req)));
        ASSERT_TRUE(reply.bool_or("ok", false))
            << reply.string_or("error", "");
        if (reply.bool_or("admitted", false)) {
          AppliedOp record;
          record.tenant = tenant;
          record.seq =
              static_cast<std::uint64_t>(reply.number_or("seq", 0));
          record.is_admit = true;
          record.flow_id = id;
          record.flow = flow;
          record.admitted = true;
          record.delay_bound_s = reply.number_or("delay_bound", 0.0);
          applied[static_cast<std::size_t>(t)].push_back(record);
          mine.emplace_back(tenant, id);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  std::vector<AppliedOp> all;
  for (const auto& chunk : applied) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  ASSERT_FALSE(all.empty());

  std::map<std::string, TenantSnapshot> final_state;
  for (const char* tenant : kTenants) {
    TenantSnapshot snap;
    const Decision d = server.engine().query(tenant, snap);
    if (d.ok) final_state.emplace(tenant, snap);
  }
  replay_and_compare(all, final_state);

  server.stop();
}

/// The "Threads:" field of /proc/self/status.
long live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stol(line.substr(8));
  }
  return -1;
}

/// Number of mappings in /proc/self/maps (one per line).
long live_mappings() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  long count = 0;
  while (std::getline(maps, line)) ++count;
  return count;
}

TEST(ConcurrencySoak, ConnectionChurnKeepsThreadsAndMappingsFlat) {
  // Every connection gets a reader thread. Finished readers must be
  // joined as the daemon runs, not only at stop(): an exited but unjoined
  // thread keeps its stack mapped, so each closed connection would cost
  // mappings until the process could not create threads at all.
  ServerConfig config;
  config.socket_path = ::testing::TempDir() + "/serve_churn_" +
                       std::to_string(::getpid()) + ".sock";
  Server server(config,
                std::make_shared<Catalog>(make_snapshot(1, soak_specs())));
  server.start();
  const Json ping = json_parse("{\"op\":\"ping\"}").value;
  const auto cycle = [&] {
    Client client = Client::connect_unix(config.socket_path);
    EXPECT_TRUE(client.request(ping).bool_or("ok", false));
    client.close();
  };
  // Warm up first, so one-time allocations of the first requests are not
  // counted.
  for (int i = 0; i < 32; ++i) cycle();
  const long threads_before = live_threads();
  const long mappings_before = live_mappings();
  ASSERT_GT(threads_before, 0);
  constexpr int kCycles = 5000;
  for (int i = 0; i < kCycles; ++i) cycle();
  // A reader is reaped at the accept after it finishes, so one or two may
  // still be alive (or exiting) here; their stacks account for the slack.
  EXPECT_LE(live_threads(), threads_before + 3);
  EXPECT_LE(live_mappings(), mappings_before + 32);
  server.stop();
}

}  // namespace
}  // namespace streamcalc::serve

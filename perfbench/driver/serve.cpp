// The serve workload: a real `streamcalc serve --socket` daemon in its own
// process, loaded with the quickstart (chain), fork_join (DAG) and
// onoff_users (stochastic chain) specs, driven from this process by:
//
//   * 3 persistent connections in a closed loop, each with its own tenants
//     (up to 8 flows per tenant): ~70% chain, ~20% DAG, ~10% stochastic
//     (epsilon 1e-6) admits and releases, plus an occasional query;
//   * 1 open-loop churn stream at a fixed session rate: connect, admit,
//     release, close, on tenants from a small fixed pool, each session
//     timed from when it was due.
//
// The daemon is restarted for every run, and its set-up time is the mean
// of the 4 fastest of 15 spawn -> first `ping` reply cycles.
// The load figures are taken over the whole run. After the load,
// every chain decision (persistent and churn) is checked against
// AdmissionEngine::oracle_chain_decision on the flow set the client
// tracked. The traced run replays the recorded request stream in process
// through the public layer functions (frame codec, JSON, engine) and
// checks that the replayed engine reproduces every live reply.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli/options.hpp"
#include "common.hpp"
#include "serve/admission.hpp"
#include "serve/catalog.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "util/context.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace serve = streamcalc::serve;
namespace util = streamcalc::util;
using serve::Json;

constexpr int kPersistent = 3;          ///< closed-loop connections
constexpr std::size_t kMaxFlows = 8;    ///< per tenant
constexpr double kChurnRate = 200.0;    ///< sessions per second
constexpr int kChurnTenants = 8;        ///< churn tenant pool
constexpr int kSetupProbes = 14;        ///< extra daemon start-ups per run
constexpr double kEpsilon = 1e-6;       ///< stochastic admits

const char* const kSpecFiles[] = {"examples/specs/quickstart.scspec",
                                  "examples/specs/fork_join.scspec",
                                  "examples/specs/onoff_users.scspec"};

enum class Kind { kChain, kDag, kStoch };

const char* scenario_of(Kind k) {
  switch (k) {
    case Kind::kChain: return "quickstart";
    case Kind::kDag: return "fork_join";
    case Kind::kStoch: return "onoff_users";
  }
  return "";
}

// --- the daemon ------------------------------------------------------------

/// A `streamcalc serve` process on a unix socket; spawned and waited for in
/// the constructor, shut down and reaped in stop() / the destructor.
class Daemon {
 public:
  Daemon(const Args& args, const std::string& socket) : socket_(socket) {
    std::vector<std::string> argv_s = {args.daemon, "serve", "--socket",
                                       socket};
    for (const char* f : kSpecFiles) argv_s.push_back(args.root + "/" + f);
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const std::string log = args.run_dir + "/daemon.log";

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    ::unlink(socket_.c_str());
    const Clock::time_point t0 = Clock::now();
    const int rc = posix_spawn(&pid_, args.daemon.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + args.daemon);
    }
    // Ready = first `ping` answered (the catalog is loaded by then).
    const Clock::time_point give_up = t0 + std::chrono::seconds(30);
    for (;;) {
      try {
        serve::Client client = serve::Client::connect_unix(socket_);
        const Json reply = client.request(Json(Json::Object{{"op", "ping"}}));
        if (!reply.bool_or("ok", false)) throw std::runtime_error("ping");
        break;
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("daemon exited during start-up; see " +
                                   log);
        }
        if (Clock::now() > give_up) {
          stop();
          throw std::runtime_error("daemon not ready after 30 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    ready_s_ = us_between(t0, Clock::now()) * 1e-6;
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::string pid() const { return std::to_string(pid_); }
  double ready_s() const { return ready_s_; }

  /// Sends `shutdown` and reaps the process, killing it after 10 s.
  void stop() {
    if (pid_ < 0) return;
    try {
      serve::Client client = serve::Client::connect_unix(socket_);
      (void)client.request(Json(Json::Object{{"op", "shutdown"}}));
    } catch (const std::exception&) {
      // Already gone or wedged; the wait below decides.
    }
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double ready_s_ = 0.0;
};

// --- requests --------------------------------------------------------------

serve::FlowSpec flow_of(const Json& req) {
  serve::FlowSpec f;
  f.rate = util::DataRate::bytes_per_sec(req.number_or("rate", 0.0));
  f.burst = util::DataSize::bytes(req.number_or("burst", 0.0));
  f.delay_target = util::Duration::seconds(req.number_or("target", 0.0));
  f.entry = req.string_or("entry", "");
  f.epsilon = req.number_or("epsilon", 0.0);
  return f;
}

/// A seeded admissible-ish flow for a scenario: most are admitted, a few
/// tight targets are rejected.
Json admit_request(Kind kind, const std::string& tenant,
                   const std::string& id, util::Xoshiro256& rng) {
  constexpr double kMiB = 1024.0 * 1024.0;
  Json::Object o{{"op", "admit"},
                 {"tenant", tenant},
                 {"scenario", scenario_of(kind)},
                 {"id", id}};
  switch (kind) {
    case Kind::kChain:
      o["rate"] = rng.uniform(0.5, 4.0) * kMiB;
      o["burst"] = rng.uniform(16.0, 128.0) * 1024.0;
      o["target"] = rng.uniform(0.004, 0.05);
      break;
    case Kind::kDag:
      o["rate"] = rng.uniform(0.5, 4.0) * kMiB;
      o["burst"] = rng.uniform(16.0, 128.0) * 1024.0;
      o["target"] = rng.uniform(0.02, 0.2);
      break;
    case Kind::kStoch:
      o["rate"] = rng.uniform(0.25, 2.0) * kMiB;
      o["burst"] = rng.uniform(16.0, 64.0) * 1024.0;
      o["target"] = rng.uniform(0.02, 0.2);
      o["epsilon"] = kEpsilon;
      break;
  }
  return Json(std::move(o));
}

/// Delay bound of a reply; non-finite bounds travel as null.
double reply_bound(const Json& reply) {
  const Json* b = reply.find("delay_bound");
  return b != nullptr && b->is_number() ? b->as_number() : INFINITY;
}

/// A chain decision to check against the from-scratch oracle.
struct ChainCheck {
  Kind kind;
  std::vector<serve::FlowSpec> candidate;  ///< engine order: flows by id, then the new one
  bool admitted;
  double delay_bound;
};

/// One request/reply pair kept by the traced run for the replay.
struct Exchange {
  std::string request;
  std::string reply;
  Kind kind;
};

struct ClientStats {
  std::uint64_t requests = 0;
  double elapsed_s = 0.0;  ///< the closed loop's own running time
  std::uint64_t admits = 0;
  std::uint64_t admitted = 0;
  std::vector<double> admit_us;
  std::vector<ChainCheck> checks;
  std::vector<Exchange> exchanges;  ///< traced run only
  std::vector<std::string> failures;
  std::uint64_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 4) failures.push_back(what);
  }
};

struct Tenant {
  std::string name;
  Kind kind;
  std::map<std::string, serve::FlowSpec> flows;  ///< as the engine orders them
  bool bound = false;  ///< has state on the daemon (query is valid)
};

/// One persistent connection's closed loop.
void persistent_client(const std::string& socket, int conn,
                       std::uint64_t seed, Clock::time_point start,
                       Clock::time_point deadline, bool record,
                       ClientStats& st) {
  util::Xoshiro256 rng(seed * 1000003ULL + static_cast<std::uint64_t>(conn));
  std::vector<Tenant> tenants;
  const auto add = [&](Kind k, const char* tag, int n) {
    for (int i = 0; i < n; ++i) {
      tenants.push_back({"c" + std::to_string(conn) + "." + tag +
                             std::to_string(i),
                         k, {}, false});
    }
  };
  add(Kind::kChain, "chain", 4);
  add(Kind::kDag, "dag", 2);
  add(Kind::kStoch, "stoch", 2);
  std::uint64_t next_id = 0;

  serve::Client client = serve::Client::connect_unix(socket);
  while (Clock::now() < deadline) {
    const double r = rng.uniform01();
    const Kind kind = r < 0.7 ? Kind::kChain
                              : (r < 0.9 ? Kind::kDag : Kind::kStoch);
    std::vector<std::size_t> of_kind;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      if (tenants[i].kind == kind) of_kind.push_back(i);
    }
    Tenant& t = tenants[of_kind[static_cast<std::size_t>(
        rng.uniform01() * static_cast<double>(of_kind.size()))]];

    Json req;
    char op = 'a';
    std::string flow_id;
    if (t.bound && rng.uniform01() < 0.03) {
      op = 'q';
      req = Json(Json::Object{{"op", "query"}, {"tenant", t.name}});
    } else if (t.flows.empty() ||
               (t.flows.size() < kMaxFlows && rng.uniform01() < 0.5)) {
      flow_id = "f" + std::to_string(next_id++);
      req = admit_request(kind, t.name, flow_id, rng);
    } else {
      op = 'r';
      auto it = t.flows.begin();
      std::advance(it, static_cast<long>(rng.uniform01() *
                                         static_cast<double>(t.flows.size())));
      flow_id = it->first;
      req = Json(Json::Object{
          {"op", "release"}, {"tenant", t.name}, {"id", flow_id}});
    }

    const Clock::time_point t0 = Clock::now();
    const Json reply = client.request(req);
    const double us = us_between(t0, Clock::now());
    ++st.requests;
    st.elapsed_s = us_between(start, Clock::now()) * 1e-6;
    if (record) st.exchanges.push_back({req.dump(), reply.dump(), kind});
    if (!reply.bool_or("ok", false)) {
      st.fail(t.name + ": " + reply.string_or("error", "request failed"));
      continue;
    }
    if (op == 'a') {
      ++st.admits;
      st.admit_us.push_back(us);
      const serve::FlowSpec flow = flow_of(req);
      const bool admitted = reply.bool_or("admitted", false);
      if (kind != Kind::kDag) {
        ChainCheck c{kind, {}, admitted, reply_bound(reply)};
        for (const auto& [id, f] : t.flows) c.candidate.push_back(f);
        c.candidate.push_back(flow);
        st.checks.push_back(std::move(c));
      }
      if (admitted) {
        ++st.admitted;
        t.flows.emplace(flow_id, flow);
        t.bound = true;
      }
    } else if (op == 'r') {
      t.flows.erase(flow_id);
    }
  }
}

struct ChurnStats {
  std::uint64_t sessions = 0;
  std::vector<double> session_us;  ///< from each session's due time
  std::vector<double> service_us;  ///< from each session's actual start
  std::vector<double> late_us;     ///< start minus due time
  std::vector<double> connect_us;
  std::vector<ChainCheck> checks;
  std::vector<std::string> failures;
  std::uint64_t failed = 0;
};

/// Open-loop sessions at kChurnRate until `deadline`.
void churn_client(const std::string& socket, std::uint64_t seed,
                  Clock::time_point start, Clock::time_point deadline,
                  ChurnStats& st) {
  util::Xoshiro256 rng(seed * 7919ULL + 17ULL);
  const auto period = std::chrono::duration<double>(1.0 / kChurnRate);
  Clock::time_point due = start;
  for (std::uint64_t i = 0; due < deadline; ++i) {
    std::this_thread::sleep_until(due);
    const Clock::time_point begin = Clock::now();
    st.late_us.push_back(us_between(due, begin));
    const std::string tenant = "churn" + std::to_string(i % kChurnTenants);
    const std::string id = "s" + std::to_string(i);
    const Json req = admit_request(Kind::kChain, tenant, id, rng);
    try {
      serve::Client client = serve::Client::connect_unix(socket);
      st.connect_us.push_back(us_between(begin, Clock::now()));
      const Json reply = client.request(req);
      if (!reply.bool_or("ok", false)) throw std::runtime_error("admit not ok");
      const bool admitted = reply.bool_or("admitted", false);
      st.checks.push_back({Kind::kChain, {flow_of(req)}, admitted,
                           reply_bound(reply)});
      if (admitted) {
        const Json rel = client.request(
            Json(Json::Object{{"op", "release"}, {"tenant", tenant}, {"id", id}}));
        if (!rel.bool_or("ok", false)) {
          throw std::runtime_error("release not ok");
        }
      }
      client.close();
      ++st.sessions;
      const Clock::time_point end = Clock::now();
      st.session_us.push_back(us_between(due, end));
      st.service_us.push_back(us_between(begin, end));
    } catch (const std::exception& e) {
      ++st.failed;
      if (st.failures.size() < 4) {
        st.failures.push_back("churn session " + std::to_string(i) + ": " +
                              e.what());
      }
    }
    due += std::chrono::duration_cast<Clock::duration>(period);
  }
}

/// Everything one loaded daemon lifetime measured.
struct LoadRun {
  double ready_s = 0.0;
  std::vector<ClientStats> clients;
  ChurnStats churn;
  Json stats;  ///< the daemon's `stats` reply after the load
  double rss_mb = 0.0;
  double threads = 0.0;
  double maps = 0.0;
  double fds = 0.0;
};

LoadRun load_daemon(const Args& args, const std::string& socket,
                    double seconds, bool record, Result& result) {
  LoadRun run;
  Daemon daemon(args, socket);
  run.ready_s = daemon.ready_s();
  run.clients.resize(kPersistent);

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  std::vector<std::jthread> threads;  // joined on every path
  for (int c = 0; c < kPersistent; ++c) {
    threads.emplace_back([&, c] {
      ClientStats& st = run.clients[static_cast<std::size_t>(c)];
      try {
        persistent_client(socket, c, args.seed, start, deadline, record, st);
      } catch (const std::exception& e) {
        st.fail("connection " + std::to_string(c) + ": " + e.what());
      }
    });
  }
  threads.emplace_back(
      [&] { churn_client(socket, args.seed, start, deadline, run.churn); });
  for (std::jthread& t : threads) t.join();

  try {
    serve::Client client = serve::Client::connect_unix(socket);
    run.stats = client.request(Json(Json::Object{{"op", "stats"}}));
  } catch (const std::exception& e) {
    result.fail(std::string("stats verb: ") + e.what());
  }
  run.rss_mb = proc_status_kb(daemon.pid(), "VmHWM") / 1024.0;
  run.threads = proc_status_kb(daemon.pid(), "Threads");
  run.maps = proc_map_count(daemon.pid());
  run.fds = proc_fd_count(daemon.pid());
  daemon.stop();

  for (const ClientStats& st : run.clients) {
    result.attempt(st.requests);
    result.fail(st.failures, st.failed);
  }
  result.attempt(run.churn.sessions + run.churn.failed);
  result.fail(run.churn.failures, run.churn.failed);
  return run;
}

/// Checks every recorded chain decision against the from-scratch oracle.
void check_chain_decisions(const LoadRun& run,
                           const serve::CatalogSnapshot& catalog,
                           Result& result) {
  const serve::ScenarioModel* chain = catalog.find(scenario_of(Kind::kChain));
  const serve::ScenarioModel* stoch = catalog.find(scenario_of(Kind::kStoch));
  const auto check = [&](const ChainCheck& c) {
    const bool is_stoch = c.kind == Kind::kStoch;
    const serve::Decision d = serve::AdmissionEngine::oracle_chain_decision(
        is_stoch ? *stoch : *chain, c.candidate, is_stoch ? kEpsilon : 0.0);
    const double bound = d.delay_bound.in_seconds();
    const bool same_bound =
        bound == c.delay_bound || (std::isinf(bound) && std::isinf(c.delay_bound));
    if (!d.ok || d.admitted != c.admitted || !same_bound) {
      result.fail(std::string("chain decision differs from the oracle (") +
                  scenario_of(c.kind) + ", " +
                  std::to_string(c.candidate.size()) + " flows)");
    }
  };
  for (const ClientStats& st : run.clients) {
    for (const ChainCheck& c : st.checks) check(c);
  }
  for (const ChainCheck& c : run.churn.checks) check(c);
}

/// The end-to-end figures of one loaded daemon lifetime, over all of it.
struct Figures {
  double requests_per_s = 0.0;
  std::vector<double> admit_us;
};

Figures whole_run_figures(const LoadRun& run) {
  Figures f;
  for (const ClientStats& st : run.clients) {
    f.requests_per_s +=
        static_cast<double>(st.requests) / std::max(st.elapsed_s, 1e-9);
    f.admit_us.insert(f.admit_us.end(), st.admit_us.begin(),
                      st.admit_us.end());
  }
  return f;
}

/// In-process replay of the traced run's request stream through the
/// public layer functions; also checks that the engine reproduces every
/// live reply. Layer times are per admit round trip, both directions.
void replay(const LoadRun& run, std::shared_ptr<serve::Catalog> catalog,
            const util::Context& ctx, Spans& spans, Result& result) {
  serve::AdmissionEngine engine(std::move(catalog), ctx);
  for (const ClientStats& st : run.clients) {
    for (const Exchange& ex : st.exchanges) {
      const Json live = serve::json_parse(ex.reply).value;
      // Client -> server: frame the request, decode it, parse it.
      Clock::time_point t0 = Clock::now();
      const std::string frame = serve::encode_frame(ex.request);
      serve::FrameDecoder in;
      in.feed(frame);
      std::string payload;
      (void)in.next(payload);
      double protocol_us = us_between(t0, Clock::now());
      t0 = Clock::now();
      const Json req = serve::json_parse(payload).value;
      double json_us = us_between(t0, Clock::now());

      const std::string op = req.string_or("op", "");
      const std::string tenant = req.string_or("tenant", "");
      serve::Decision d;
      t0 = Clock::now();
      if (op == "admit") {
        d = engine.admit(tenant, req.string_or("scenario", ""),
                         req.string_or("id", ""), flow_of(req));
      } else if (op == "release") {
        d = engine.release(tenant, req.string_or("id", ""));
      } else {
        serve::TenantSnapshot snap;
        d = engine.query(tenant, snap);
      }
      const double engine_us = us_between(t0, Clock::now());

      // Server -> client: dump the reply, frame it, decode it, parse it.
      t0 = Clock::now();
      const std::string reply_text = live.dump();
      json_us += us_between(t0, Clock::now());
      t0 = Clock::now();
      const std::string reply_frame = serve::encode_frame(reply_text);
      serve::FrameDecoder out;
      out.feed(reply_frame);
      std::string reply_payload;
      (void)out.next(reply_payload);
      protocol_us += us_between(t0, Clock::now());
      t0 = Clock::now();
      (void)serve::json_parse(reply_payload);
      json_us += us_between(t0, Clock::now());

      const bool same =
          d.ok == live.bool_or("ok", false) &&
          static_cast<double>(d.seq) == live.number_or("seq", -1.0) &&
          (op != "admit" || d.admitted == live.bool_or("admitted", false));
      if (!same) {
        result.fail("replayed " + op + " for " + tenant +
                    " differs from the live reply");
      }
      if (op != "query") {
        spans.record(ex.kind == Kind::kChain ? "serve.engine.chain"
                     : ex.kind == Kind::kDag ? "serve.engine.dag"
                                             : "serve.engine.stoch",
                     engine_us);
      }
      if (op != "admit") continue;
      spans.record("serve.protocol", protocol_us);
      spans.record("serve.json", json_us);
      spans.record("serve.engine.admit", engine_us);
    }
  }
}

}  // namespace

int run_serve(const Args& args) {
  Result result;
  if (args.daemon.empty()) throw std::runtime_error("serve needs --daemon");
  const std::string sock_base =
      args.run_dir + "/s" + std::to_string(::getpid());
  const char* argv[] = {"streamcalc", "serve", "--socket", "x"};
  const util::Context ctx = streamcalc::cli::parse_args(4, argv).options.ctx;
  util::Context::install(ctx);

  std::vector<std::string> spec_paths;
  for (const char* f : kSpecFiles) spec_paths.push_back(args.root + "/" + f);
  const auto snapshot = serve::load_snapshot(1, spec_paths);

  // The host's speed before the load, every CPU in turn.
  std::vector<double> reference;
  {
    CpuRotation cpus;
    for (int i = 0; i < 64; ++i) {
      cpus.next();
      reference.push_back(reference_loop_us());
    }
  }
  const double host_reference_us =
      fastest_repetitions({reference}).unit_us.front();

  std::vector<double> ready;
  if (!args.trace) {
    for (int i = 0; i < kSetupProbes; ++i) {
      Daemon probe(args, sock_base + "p.sock");
      ready.push_back(probe.ready_s());
    }
  }

  const LoadRun e2e = load_daemon(args, sock_base + "a.sock",
                                  args.trace ? args.seconds / 3.0 : args.seconds,
                                  false, result);
  check_chain_decisions(e2e, *snapshot, result);
  ready.push_back(e2e.ready_s);
  const Figures e2e_fig = whole_run_figures(e2e);

  if (!args.trace) {
    result.metric("setup_s", fastest_mean(ready, kProbeShare));
    result.metric("throughput_per_s", e2e_fig.requests_per_s);
    result.metric("latency_p50_us", quantile(e2e_fig.admit_us, 0.5));
    result.metric("latency_p95_us", quantile(e2e_fig.admit_us, 0.95));
    // The rate one serial churn client sustains: the daemon's connect ->
    // admit -> release -> close time, not the generator's fixed rate.
    result.metric("secondary_per_s",
                  1e6 / quantile(e2e.churn.service_us, 0.5));
    result.metric("secondary_p50_us", quantile(e2e.churn.session_us, 0.5));
    result.metric("rss_mb", e2e.rss_mb);
    result.note("admit.p99_us", quantile(e2e_fig.admit_us, 0.99));
    std::uint64_t admits = 0;
    std::uint64_t admitted = 0;
    for (const ClientStats& st : e2e.clients) {
      admits += st.admits;
      admitted += st.admitted;
    }
    result.note("admits", static_cast<double>(admits));
    result.note("admitted_ratio",
                static_cast<double>(admitted) / std::max<double>(admits, 1.0));
    result.note("churn.sessions", static_cast<double>(e2e.churn.sessions));
    result.note("churn.late_p50_us", quantile(e2e.churn.late_us, 0.5));
    result.note("churn.late_p99_us", quantile(e2e.churn.late_us, 0.99));
    result.note("churn.late_max_us", quantile(e2e.churn.late_us, 1.0));
    result.note("daemon.threads", e2e.threads);
    result.note("daemon.maps", e2e.maps);
    result.note("host.reference_us", host_reference_us);
    result.print();
    return result.failed() == 0 ? 0 : 1;
  }

  const LoadRun tr = load_daemon(args, sock_base + "b.sock",
                                 args.seconds * 2.0 / 3.0, true, result);
  check_chain_decisions(tr, *snapshot, result);
  Spans spans(true);
  replay(tr, std::make_shared<serve::Catalog>(serve::load_snapshot(1, spec_paths)),
         ctx, spans, result);

  const Figures tr_fig = whole_run_figures(tr);
  const double client_p50 = quantile(tr_fig.admit_us, 0.5);
  const double protocol = spans.median_us("serve.protocol");
  const double json = spans.median_us("serve.json");
  const double engine = spans.median_us("serve.engine.admit");
  result.metric("serve.protocol_us", protocol);
  result.metric("serve.json_us", json);
  result.metric("serve.engine.chain_us", spans.median_us("serve.engine.chain"));
  result.metric("serve.engine.dag_us", spans.median_us("serve.engine.dag"));
  result.metric("serve.engine.stoch_us", spans.median_us("serve.engine.stoch"));
  result.metric("serve.transport_us", client_p50 - protocol - json - engine);
  const double batches = tr.stats.number_or("batches", 0.0);
  result.metric("serve.batch_size",
                tr.stats.number_or("requests", 0.0) / std::max(batches, 1.0));
  result.metric("serve.connect_us", quantile(tr.churn.connect_us, 0.5));
  result.metric("serve.daemon_threads", tr.threads);
  result.metric("serve.daemon_maps", tr.maps);
  result.metric("serve.daemon_fds", tr.fds);
  result.metric("serve.churn_late_us", quantile(tr.churn.late_us, 0.99));
  result.metric("trace.slowdown",
                e2e_fig.requests_per_s / tr_fig.requests_per_s);
  result.note("untraced.throughput_per_s", e2e_fig.requests_per_s);
  result.note("traced.throughput_per_s", tr_fig.requests_per_s);
  result.note("untraced.latency_p50_us", quantile(e2e_fig.admit_us, 0.5));
  result.note("traced.latency_p50_us", client_p50);
  result.note("traced.rss_mb", tr.rss_mb);
  result.metric("host.reference_us", host_reference_us);
  result.print();
  return result.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench

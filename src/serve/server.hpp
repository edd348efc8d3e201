// The admission-control daemon (`streamcalc serve`, DESIGN.md §12).
//
// A Server binds one endpoint — a unix domain socket or TCP on
// 127.0.0.1 — and answers length-prefixed JSON frames (protocol.hpp):
//
//   {"op":"admit","tenant":T,"scenario":S,"id":F,"rate":R,"burst":B,
//    "target":D[,"entry":node][,"certify":true]}
//   {"op":"release","tenant":T,"id":F}
//   {"op":"query","tenant":T}
//   {"op":"stats"} | {"op":"reload"} | {"op":"ping"} | {"op":"shutdown"}
//
// Every reply is an object with at least {"ok":bool}; errors carry
// "error", rejected admits carry "reason". Malformed JSON inside a valid
// frame gets a clean {"ok":false} reply and the connection lives on; an
// oversized frame gets an error reply and the connection is closed (the
// length prefix can no longer be trusted).
//
// Threading. One accept thread plus one reader thread per connection. A
// reader marks its connection finished when the peer goes away, and the
// accept loop joins and drops finished connections before it registers
// the next one, so closed connections do not pile up until stop(). Each
// batch of frames that arrives together runs in frame order on its
// reader thread, and the replies go back in one write; different
// connections run concurrently. Admission state lives in AdmissionEngine
// (per-tenant locking), the scenario catalog behind epoch/snapshot swaps
// (catalog.hpp) — a `reload` builds the whole new snapshot before
// publishing, never stopping admission.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/catalog.hpp"
#include "serve/protocol.hpp"
#include "util/context.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace streamcalc::serve {

/// Endpoint + catalog configuration for one Server.
struct ServerConfig {
  std::string socket_path;  ///< unix socket path; empty = use `port`
  int port = -1;            ///< TCP port on 127.0.0.1 (0 = kernel-assigned)
  std::vector<std::string> spec_paths;  ///< catalog specs (reload re-reads)
  std::size_t max_frame = kDefaultMaxFramePayload;
  util::Context ctx;  ///< run configuration (certify mode, obs)
};

class Server {
 public:
  /// Loads the catalog from config.spec_paths (epoch 1). Throws
  /// PreconditionError on unreadable/unparseable specs.
  explicit Server(ServerConfig config);

  /// Uses an injected catalog instead of reading spec files (tests). The
  /// `reload` verb re-reads config.spec_paths, so with an empty list it
  /// reports an error reply.
  Server(ServerConfig config, std::shared_ptr<Catalog> catalog);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts accepting. Throws PreconditionError when
  /// the endpoint cannot be bound (bad path, address in use, ...).
  void start();

  /// Blocks until request_stop() (or a shutdown request) fires, then
  /// tears everything down. start() must have been called.
  void run();

  /// Asynchronously asks run() to return. Async-signal-safe.
  void request_stop() { stop_requested_.store(true); }

  /// Synchronous teardown: stops accepting, shuts down live connections,
  /// joins every thread. Idempotent; ~Server calls it.
  void stop();

  /// Bound TCP port (after start(); meaningful for port-0 auto-assign).
  int bound_port() const { return bound_port_; }

  /// Human-readable bound endpoint, e.g. "unix:/tmp/x.sock".
  std::string endpoint() const;

  AdmissionEngine& engine() { return *engine_; }
  const std::shared_ptr<Catalog>& catalog() const { return catalog_; }

 private:
  struct Connection {
    int fd = -1;  ///< -1 once the reader closed it (guarded by conn mutex)
    bool finished = false;  ///< reader is done (guarded by conn mutex)
    std::thread reader;
  };

  void accept_loop();
  void serve_connection(Connection* conn, int fd);
  /// Handles one batch of frame payloads and writes the framed replies in
  /// order. Returns false when the peer went away mid-write.
  bool process_batch(int fd, const std::vector<std::string>& payloads);
  /// One request end to end; never throws. `want_shutdown` is set when
  /// the verb asks the daemon to exit (after the reply is flushed).
  std::string handle_request(const std::string& payload,
                             bool& want_shutdown);

  util::Json handle_admit(const util::Json& req);
  util::Json handle_release(const util::Json& req);
  util::Json handle_query(const util::Json& req);
  util::Json handle_stats();
  util::Json handle_reload() SC_EXCLUDES(reload_mutex_);

  ServerConfig config_;
  std::shared_ptr<Catalog> catalog_;
  std::unique_ptr<AdmissionEngine> engine_;

  /// Atomic: the accept loop reads it concurrently with stop()'s reset.
  std::atomic<int> listen_fd_{-1};
  int bound_port_ = -1;
  std::string bound_path_;  ///< unix socket to unlink at teardown
  std::thread accept_thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopped_{false};

  mutable util::Mutex conn_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_
      SC_GUARDED_BY(conn_mutex_);

  /// Serializes reloads so concurrent `reload` verbs get consecutive
  /// epochs instead of racing publish().
  util::Mutex reload_mutex_;

  // --- stats (exposed by the `stats` verb) -------------------------------
  // The server's own instruments, so `stats` answers with STREAMCALC_OBS=off;
  // the obs registry carries no copy of them.
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> request_errors_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> admit_accepted_{0};
  std::atomic<std::uint64_t> admit_rejected_{0};
  std::atomic<std::uint64_t> connections_{0};
  obs::Histogram latency_us_;  ///< per-request handling latency
};

}  // namespace streamcalc::serve

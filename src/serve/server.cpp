#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace streamcalc::serve {

using util::Json;

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Writes the whole buffer; false when the peer went away.
bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

Json error_reply(const std::string& message) {
  Json::Object obj;
  obj.emplace("ok", Json(false));
  obj.emplace("error", Json(message));
  return Json(std::move(obj));
}

void put_decision(Json::Object& obj, const Decision& d) {
  obj.emplace("ok", Json(d.ok));
  obj.emplace("seq", Json(static_cast<double>(d.seq)));
  obj.emplace("epoch", Json(static_cast<double>(d.epoch)));
  if (d.ok) {
    obj.emplace("delay_bound", Json(d.delay_bound.in_seconds()));
    obj.emplace("changed", Json(d.changed));
    // Only stochastic decisions carry the extra fields; deterministic
    // replies are byte-identical to the pre-epsilon protocol.
    if (d.epsilon > 0.0) {
      obj.emplace("epsilon", Json(d.epsilon));
      obj.emplace("bound_kind", Json(std::string(to_string(d.kind))));
    }
  } else {
    obj.emplace("error", Json(d.error));
  }
  if (!d.reason.empty()) obj.emplace("reason", Json(d.reason));
}

FlowSpec flow_from_request(const Json& req) {
  FlowSpec flow;
  // The one place raw wire numbers become unit-bearing values (SC908):
  // the protocol speaks bytes/second, bytes, and seconds.
  flow.rate = util::DataRate::bytes_per_sec(req.number_or("rate", 0.0));
  flow.burst = util::DataSize::bytes(req.number_or("burst", 0.0));
  flow.delay_target = util::Duration::seconds(req.number_or("target", 0.0));
  flow.entry = req.string_or("entry", "");
  // Absent (the common case) means 0: the deterministic admission path.
  flow.epsilon = req.number_or("epsilon", 0.0);
  return flow;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      catalog_(std::make_shared<Catalog>(
          load_snapshot(1, config_.spec_paths))) {
  engine_ = std::make_unique<AdmissionEngine>(catalog_, config_.ctx);
}

Server::Server(ServerConfig config, std::shared_ptr<Catalog> catalog)
    : config_(std::move(config)), catalog_(std::move(catalog)) {
  util::require(catalog_ != nullptr, "Server requires a catalog");
  engine_ = std::make_unique<AdmissionEngine>(catalog_, config_.ctx);
}

Server::~Server() { stop(); }

std::string Server::endpoint() const {
  if (!bound_path_.empty()) return "unix:" + bound_path_;
  return "tcp:127.0.0.1:" + std::to_string(bound_port_);
}

void Server::start() {
  util::require(listen_fd_.load() < 0, "Server::start called twice");
  if (!config_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    util::require(config_.socket_path.size() < sizeof(addr.sun_path),
                  "socket path too long: '" + config_.socket_path + "'");
    std::memcpy(addr.sun_path, config_.socket_path.c_str(),
                config_.socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    util::require(fd >= 0, errno_text("cannot create unix socket"));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string why =
          errno_text("cannot bind '" + config_.socket_path + "'");
      ::close(fd);
      throw util::PreconditionError(why);
    }
    bound_path_ = config_.socket_path;
    listen_fd_ = fd;
  } else {
    util::require(config_.port >= 0 && config_.port <= 65535,
                  "serve requires a unix socket path or a TCP port");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    util::require(fd >= 0, errno_text("cannot create TCP socket"));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string why = errno_text(
          "cannot bind 127.0.0.1:" + std::to_string(config_.port));
      ::close(fd);
      throw util::PreconditionError(why);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      bound_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
    listen_fd_ = fd;
  }
  if (::listen(listen_fd_.load(), 64) != 0) {
    const std::string why = errno_text("cannot listen on " + endpoint());
    ::close(listen_fd_.load());
    listen_fd_.store(-1);
    throw util::PreconditionError(why);
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::run() {
  util::require(listen_fd_.load() >= 0 || stopped_.load(),
                "Server::run requires start()");
  while (!stop_requested_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop();
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  stop_requested_.store(true);
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    // shutdown() wakes the blocked accept(); close() alone can leave it
    // parked on some kernels.
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    util::MutexLock lock(conn_mutex_);
    for (const auto& conn : conns_) {
      // Wake blocked readers; the reader owns (and closes) the fd, so
      // only shut it down here. fd numbers cannot be recycled under us:
      // close happens under this same mutex.
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  if (!bound_path_.empty()) {
    ::unlink(bound_path_.c_str());
    bound_path_.clear();
  }
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // stop() shut the listener down (or a transient accept failure on a
      // dying socket); either way the server is going away.
      return;
    }
    if (stop_requested_.load()) {
      ::close(fd);
      return;
    }
    connections_.fetch_add(1);
    std::vector<std::unique_ptr<Connection>> finished;
    {
      util::MutexLock lock(conn_mutex_);
      // Reap the connections whose readers are done; a reader touches its
      // Connection only under this mutex and never after marking it
      // finished, so moving it out here is safe.
      const auto done = std::partition(
          conns_.begin(), conns_.end(),
          [](const std::unique_ptr<Connection>& c) { return !c->finished; });
      finished.assign(std::make_move_iterator(done),
                      std::make_move_iterator(conns_.end()));
      conns_.erase(done, conns_.end());
      conns_.push_back(std::make_unique<Connection>());
      Connection* conn = conns_.back().get();
      conn->fd = fd;
      conn->reader =
          std::thread([this, conn, fd] { serve_connection(conn, fd); });
    }
    for (const auto& conn : finished) conn->reader.join();
  }
}

void Server::serve_connection(Connection* conn, int fd) {
  FrameDecoder decoder(config_.max_frame);
  char buf[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));
    std::vector<std::string> batch;
    std::string frame;
    FrameDecoder::Status status;
    while ((status = decoder.next(frame)) == FrameDecoder::Status::kFrame) {
      batch.push_back(std::move(frame));
    }
    if (!batch.empty() && !process_batch(fd, batch)) break;
    if (status == FrameDecoder::Status::kOversized) {
      protocol_errors_.fetch_add(1);
      const std::string reply =
          error_reply("frame of " +
                      std::to_string(decoder.oversized_length()) +
                      " bytes exceeds the " +
                      std::to_string(config_.max_frame) + "-byte ceiling")
              .dump();
      (void)send_all(fd, encode_frame(reply, config_.max_frame));
      break;  // the stream cannot be resynced past a corrupt length
    }
    if (status == FrameDecoder::Status::kBadVersion) {
      protocol_errors_.fetch_add(1);
      const std::string reply =
          error_reply("unsupported protocol version " +
                      std::to_string(
                          static_cast<unsigned>(decoder.bad_version())) +
                      "; this server speaks version " +
                      std::to_string(
                          static_cast<unsigned>(kProtocolVersion)))
              .dump();
      (void)send_all(fd, encode_frame(reply, config_.max_frame));
      break;  // ditto: no resync past a corrupt header
    }
  }
  if (decoder.mid_frame()) {
    // Peer vanished inside a frame: note it and move on — a truncated
    // frame must never take the server down.
    protocol_errors_.fetch_add(1);
    SC_OBS_COUNT("serve.request.truncated", 1);
  }
  // The Connection outlives this thread: the accept loop drops it only
  // after seeing `finished`, and stop() joins before destroying it.
  util::MutexLock lock(conn_mutex_);
  conn->fd = -1;
  conn->finished = true;
  ::close(fd);
}

bool Server::process_batch(int fd, const std::vector<std::string>& payloads) {
  batches_.fetch_add(1);
  SC_OBS_OBSERVE("serve.request.batch_size",
                 static_cast<double>(payloads.size()));
  // Frames run in frame order on this reader thread: a pipelined client
  // sees each request applied after the ones it sent before it. Other
  // connections run concurrently on their own reader threads.
  std::string out;
  bool want_shutdown = false;
  for (const std::string& payload : payloads) {
    out += encode_frame(handle_request(payload, want_shutdown),
                        config_.max_frame);
  }
  const bool sent = send_all(fd, out);
  if (want_shutdown) request_stop();
  return sent;
}

std::string Server::handle_request(const std::string& payload,
                                   bool& want_shutdown) {
  SC_OBS_SPAN("serve", "request");
  const auto started = std::chrono::steady_clock::now();
  requests_total_.fetch_add(1);

  Json reply;
  try {
    const util::JsonParseResult parsed = util::json_parse(payload);
    if (!parsed.ok()) {
      reply = error_reply("parse error at byte " +
                          std::to_string(parsed.offset) + ": " +
                          parsed.error);
    } else if (!parsed.value.is_object()) {
      reply = error_reply("request must be a JSON object");
    } else {
      const std::string op = parsed.value.string_or("op", "");
      if (op == "admit") {
        reply = handle_admit(parsed.value);
      } else if (op == "release") {
        reply = handle_release(parsed.value);
      } else if (op == "query") {
        reply = handle_query(parsed.value);
      } else if (op == "stats") {
        reply = handle_stats();
      } else if (op == "reload") {
        reply = handle_reload();
      } else if (op == "ping") {
        Json::Object obj;
        obj.emplace("ok", Json(true));
        obj.emplace("epoch",
                    Json(static_cast<double>(catalog_->epoch())));
        reply = Json(std::move(obj));
      } else if (op == "shutdown") {
        want_shutdown = true;
        Json::Object obj;
        obj.emplace("ok", Json(true));
        reply = Json(std::move(obj));
      } else if (op.empty()) {
        reply = error_reply("request requires an \"op\" field");
      } else {
        reply = error_reply("unknown op '" + op + "'");
      }
    }
  } catch (const std::exception& e) {
    // A request must never tear the daemon down; surface the failure to
    // the one client that caused it.
    reply = error_reply(e.what());
  }
  if (!reply.bool_or("ok", false)) {
    request_errors_.fetch_add(1);
  }
  const double us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - started)
          .count();
  latency_us_.observe(us);
  return reply.dump();
}

Json Server::handle_admit(const Json& req) {
  const Decision d = engine_->admit(
      req.string_or("tenant", ""), req.string_or("scenario", ""),
      req.string_or("id", ""), flow_from_request(req),
      req.bool_or("certify", false));
  if (d.admitted) {
    admit_accepted_.fetch_add(1);
  } else {
    admit_rejected_.fetch_add(1);
  }
  Json::Object obj;
  put_decision(obj, d);
  obj.emplace("admitted", Json(d.admitted));
  return Json(std::move(obj));
}

Json Server::handle_release(const Json& req) {
  const Decision d = engine_->release(req.string_or("tenant", ""),
                                      req.string_or("id", ""));
  Json::Object obj;
  put_decision(obj, d);
  return Json(std::move(obj));
}

Json Server::handle_query(const Json& req) {
  TenantSnapshot snap;
  const Decision d = engine_->query(req.string_or("tenant", ""), snap);
  Json::Object obj;
  put_decision(obj, d);
  if (d.ok) {
    obj.emplace("scenario", Json(snap.scenario));
    obj["delay_bound"] = Json(snap.delay_bound.in_seconds());
    Json::Array flows;
    flows.reserve(snap.flows.size());
    for (const auto& [id, flow] : snap.flows) {
      Json::Object f;
      f.emplace("id", Json(id));
      f.emplace("rate", Json(flow.rate.in_bytes_per_sec()));
      f.emplace("burst", Json(flow.burst.in_bytes()));
      f.emplace("target", Json(flow.delay_target.in_seconds()));
      if (!flow.entry.empty()) f.emplace("entry", Json(flow.entry));
      flows.emplace_back(std::move(f));
    }
    obj.emplace("flows", Json(std::move(flows)));
  }
  return Json(std::move(obj));
}

Json Server::handle_stats() {
  const auto snapshot = catalog_->snapshot();
  const obs::Histogram::Snapshot lat = latency_us_.snapshot();
  Json::Object obj;
  obj.emplace("ok", Json(true));
  obj.emplace("epoch", Json(static_cast<double>(snapshot->epoch())));
  obj.emplace("scenarios", Json(static_cast<double>(snapshot->size())));
  obj.emplace("tenants",
              Json(static_cast<double>(engine_->tenant_count())));
  obj.emplace("requests",
              Json(static_cast<double>(requests_total_.load())));
  obj.emplace("request_errors",
              Json(static_cast<double>(request_errors_.load())));
  obj.emplace("protocol_errors",
              Json(static_cast<double>(protocol_errors_.load())));
  obj.emplace("batches", Json(static_cast<double>(batches_.load())));
  obj.emplace("connections",
              Json(static_cast<double>(connections_.load())));
  obj.emplace("admit_accepted",
              Json(static_cast<double>(admit_accepted_.load())));
  obj.emplace("admit_rejected",
              Json(static_cast<double>(admit_rejected_.load())));
  Json::Object latency;
  latency.emplace("count", Json(static_cast<double>(lat.count)));
  if (lat.count > 0) {
    latency.emplace("mean",
                    Json(lat.sum / static_cast<double>(lat.count)));
    latency.emplace("max", Json(lat.max));
    latency.emplace("p50",
                    Json(obs::Histogram::estimate_quantile(lat, 0.50)));
    latency.emplace("p99",
                    Json(obs::Histogram::estimate_quantile(lat, 0.99)));
  }
  obj.emplace("latency_us", Json(std::move(latency)));
  return Json(std::move(obj));
}

Json Server::handle_reload() {
  if (config_.spec_paths.empty()) {
    return error_reply(
        "reload unavailable: the catalog was injected, not loaded from "
        "spec paths");
  }
  try {
    util::MutexLock lock(reload_mutex_);
    const std::uint64_t next_epoch = catalog_->epoch() + 1;
    // Parse + precompute the whole snapshot before publishing: a broken
    // spec rejects the reload and the old epoch keeps serving.
    catalog_->publish(load_snapshot(next_epoch, config_.spec_paths));
    SC_OBS_GAUGE("serve.catalog.epoch", static_cast<double>(next_epoch));
    Json::Object obj;
    obj.emplace("ok", Json(true));
    obj.emplace("epoch", Json(static_cast<double>(next_epoch)));
    obj.emplace("scenarios",
                Json(static_cast<double>(catalog_->snapshot()->size())));
    return Json(std::move(obj));
  } catch (const util::PreconditionError& e) {
    return error_reply(std::string("reload failed: ") + e.what());
  }
}

}  // namespace streamcalc::serve

// Blocking client for the serve wire protocol — the counterpart the
// tests, the QPS bench, and the smoke scripts drive the daemon with.
//
// Deliberately simple: one socket, synchronous request/reply, framed by
// protocol.hpp. The raw byte entry points exist so the protocol tests can
// send garbage (unframed bytes, truncated frames, hostile lengths) and
// observe how the server reacts.
#pragma once

#include <string>

#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace streamcalc::serve {

class Client {
 public:
  /// Connects to a unix domain socket. Throws PreconditionError when the
  /// daemon is not there.
  static Client connect_unix(const std::string& path);
  /// Connects to TCP 127.0.0.1:port.
  static Client connect_tcp(int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Framed request/reply. Throws PreconditionError on transport errors
  /// (connection closed, oversized reply).
  util::Json request(const util::Json& request);

  /// Same, but the payload is sent verbatim — lets tests deliver invalid
  /// JSON inside a valid frame.
  std::string request_raw(const std::string& payload);

  /// Sends raw bytes with no framing at all (hostile-input tests).
  void send_bytes(const std::string& bytes);

  /// Blocks for the next complete reply frame.
  std::string recv_frame();

  void close();
  bool connected() const { return fd_ >= 0; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace streamcalc::serve

#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace streamcalc::serve {

using util::Json;

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Client Client::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  util::require(path.size() < sizeof(addr.sun_path),
                "socket path too long: '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  util::require(fd >= 0, errno_text("cannot create unix socket"));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = errno_text("cannot connect to '" + path + "'");
    ::close(fd);
    throw util::PreconditionError(why);
  }
  return Client(fd);
}

Client Client::connect_tcp(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  util::require(fd >= 0, errno_text("cannot create TCP socket"));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = errno_text(
        "cannot connect to 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    throw util::PreconditionError(why);
  }
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    decoder_ = std::move(other.decoder_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::send_bytes(const std::string& bytes) {
  util::require(fd_ >= 0, "client is not connected");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::PreconditionError(errno_text("send failed"));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string Client::recv_frame() {
  util::require(fd_ >= 0, "client is not connected");
  std::string frame;
  for (;;) {
    const FrameDecoder::Status status = decoder_.next(frame);
    if (status == FrameDecoder::Status::kFrame) return frame;
    util::require(status != FrameDecoder::Status::kOversized,
                  "oversized reply frame");
    util::require(status != FrameDecoder::Status::kBadVersion,
                  "reply frame carries an unsupported protocol version");
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      throw util::PreconditionError("connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::PreconditionError(errno_text("recv failed"));
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::string Client::request_raw(const std::string& payload) {
  send_bytes(encode_frame(payload));
  return recv_frame();
}

Json Client::request(const Json& request) {
  const std::string reply = request_raw(request.dump());
  util::JsonParseResult parsed = util::json_parse(reply);
  util::require(parsed.ok(), "malformed reply from server: " + parsed.error);
  return std::move(parsed.value);
}

}  // namespace streamcalc::serve

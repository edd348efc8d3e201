// Wire-protocol tests for the serve daemon: frame codec round-trips
// under arbitrary chunking, hostile frames (oversized, truncated,
// garbage, malformed or out-of-range JSON), and the live server's
// reaction to each — a malformed payload must produce a clean
// {"ok":false} reply, never a crash or a wedged connection — plus the
// "certify" admit flag on chain and DAG scenarios. The JSON parser's own
// tests are in tests/util/json_test.cpp.
//
// All fuzz loops are seeded and replayable; failures print the (seed,
// case) pair. Runs under the `property` CTest label (ubsan preset).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cli/spec.hpp"
#include "obs/obs.hpp"
#include "serve/catalog.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace streamcalc::serve {
namespace {

using util::Json;
using util::json_parse;

constexpr std::uint64_t kSeed = 0x5eedf00dULL;

// --- frame codec --------------------------------------------------------

TEST(FrameCodec, RoundTripsPayloads) {
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string("{\"op\":\"ping\"}"),
        std::string(1000, 'a'), std::string("\x00\xff\x7f bin", 8)}) {
    const std::string wire = encode_frame(payload);
    ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());
    FrameDecoder decoder;
    decoder.feed(wire);
    std::string out;
    ASSERT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
    EXPECT_EQ(out, payload);
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kNeedMore);
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(FrameCodec, RoundTripsUnderRandomChunking) {
  util::Xoshiro256 rng(kSeed);
  for (int round = 0; round < 200; ++round) {
    // A handful of frames with random payloads, delivered in random-size
    // chunks; the decoder must pop them back in order byte-for-byte.
    const int frames = 1 + static_cast<int>(rng() % 5);
    std::vector<std::string> payloads;
    std::string wire;
    for (int f = 0; f < frames; ++f) {
      std::string payload(rng() % 300, '\0');
      for (char& c : payload) c = static_cast<char>(rng() % 256);
      wire += encode_frame(payload);
      payloads.push_back(std::move(payload));
    }
    FrameDecoder decoder;
    std::vector<std::string> got;
    std::size_t off = 0;
    while (off < wire.size()) {
      const std::size_t n = std::min<std::size_t>(
          wire.size() - off, static_cast<std::size_t>(1 + rng() % 17));
      decoder.feed(wire.data() + off, n);
      off += n;
      std::string frame;
      while (decoder.next(frame) == FrameDecoder::Status::kFrame) {
        got.push_back(frame);
      }
    }
    ASSERT_EQ(got, payloads) << "seed=" << kSeed << " round=" << round;
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(FrameCodec, DetectsOversizedFromTheHeaderAlone) {
  FrameDecoder decoder(/*max_payload=*/1024);
  // Declared length 1 MiB, not a single payload byte delivered: the
  // decoder must reject on the declared length, not after buffering.
  const char header[5] = {0x01, 0x00, 0x10, 0x00, 0x00};
  decoder.feed(header, sizeof(header));
  std::string out;
  ASSERT_EQ(decoder.next(out), FrameDecoder::Status::kOversized);
  EXPECT_EQ(decoder.oversized_length(), std::size_t{1} << 20);
  // The decoder is dead: more bytes cannot resurrect it.
  decoder.feed(std::string(64, 'x'));
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kOversized);
}

TEST(FrameCodec, HostileLengthPrefixIsOversized) {
  FrameDecoder decoder;
  decoder.feed("\x01\xff\xff\xff\xff", 5);
  std::string out;
  ASSERT_EQ(decoder.next(out), FrameDecoder::Status::kOversized);
  EXPECT_EQ(decoder.oversized_length(), 0xffffffffu);
}

TEST(FrameCodec, EncodedFramesCarryTheProtocolVersion) {
  const std::string wire = encode_frame("payload");
  ASSERT_GE(wire.size(), kFrameHeaderBytes);
  EXPECT_EQ(static_cast<unsigned char>(wire[0]), kProtocolVersion);
}

TEST(FrameCodec, RejectsUnknownVersionOnTheFirstByte) {
  // The original unversioned framing starts with the high length octet —
  // 0x00 for any sane payload; a future v2 would be 0x02. Both must be
  // detected before a length is even read, and the decoder must stay dead.
  for (const unsigned char bad :
       {static_cast<unsigned char>(0x00), static_cast<unsigned char>(0x02),
        static_cast<unsigned char>(0xff)}) {
    FrameDecoder decoder;
    const char byte = static_cast<char>(bad);
    decoder.feed(&byte, 1);
    std::string out;
    ASSERT_EQ(decoder.next(out), FrameDecoder::Status::kBadVersion)
        << "version byte " << static_cast<unsigned>(bad);
    EXPECT_EQ(decoder.bad_version(), bad);
    decoder.feed(encode_frame("{}"));
    EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kBadVersion);
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(FrameCodec, TruncatedFrameStaysPending) {
  FrameDecoder decoder;
  const std::string wire = encode_frame("hello, daemon");
  decoder.feed(wire.data(), wire.size() - 5);
  std::string out;
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kNeedMore);
  EXPECT_TRUE(decoder.mid_frame());
  // Delivering the rest completes it (a closed connection would simply
  // leave mid_frame() true).
  decoder.feed(wire.substr(wire.size() - 5));
  ASSERT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, "hello, daemon");
}

TEST(FrameCodec, EncodeRejectsOversizedPayloads) {
  EXPECT_THROW(encode_frame(std::string(2048, 'x'), 1024),
               util::PreconditionError);
}

// --- the live server ----------------------------------------------------

class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string source =
        "[source]\nrate = 100 MiB/s\nburst = 64 KiB\npacket = 64 KiB\n";
    const std::string chain_text =
        source +
        "[node stage]\nblock_in = 64 KiB\nrate_min = 200 MiB/s\n"
        "rate_avg = 220 MiB/s\nrate_max = 240 MiB/s\n";
    const std::string dag_text =
        source +
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
    auto snapshot =
        make_snapshot(1, {{"chain", cli::parse_spec(chain_text)},
                          {"dag", cli::parse_spec(dag_text)}});
    catalog_ = std::make_shared<Catalog>(snapshot);
    ServerConfig config;
    config.socket_path = ::testing::TempDir() + "/serve_protocol_" +
                         std::to_string(::getpid()) + ".sock";
    server_ = std::make_unique<Server>(config, catalog_);
    server_->start();
    path_ = config.socket_path;
  }

  void TearDown() override { server_->stop(); }

  std::shared_ptr<Catalog> catalog_;
  std::unique_ptr<Server> server_;
  std::string path_;
};

TEST_F(ServeProtocolTest, TcpPortZeroRoundTrip) {
  // Port 0 asks the kernel for a free port; bound_port() reports it. The
  // TCP transport must answer byte for byte like the unix socket.
  ServerConfig config;
  config.port = 0;
  Server tcp_server(config, catalog_);
  tcp_server.start();
  ASSERT_GT(tcp_server.bound_port(), 0);
  EXPECT_EQ(tcp_server.endpoint(),
            "tcp:127.0.0.1:" + std::to_string(tcp_server.bound_port()));

  Client tcp = Client::connect_tcp(tcp_server.bound_port());
  Client unix_client = Client::connect_unix(path_);
  const std::string ping = "{\"op\":\"ping\"}";
  const std::string admit =
      "{\"op\":\"admit\",\"tenant\":\"t\",\"scenario\":\"chain\","
      "\"id\":\"f1\",\"rate\":1048576,\"burst\":65536,\"target\":0.5}";
  for (const std::string& request : {ping, admit}) {
    const std::string over_tcp = tcp.request_raw(request);
    EXPECT_EQ(over_tcp, unix_client.request_raw(request)) << request;
    EXPECT_TRUE(json_parse(over_tcp).value.bool_or("ok", false)) << over_tcp;
  }
  tcp.close();
  tcp_server.stop();
}

TEST_F(ServeProtocolTest, GarbageJsonGetsCleanErrorReplyAndConnectionLives) {
  Client client = Client::connect_unix(path_);
  for (const char* garbage :
       {"not json at all", "{\"op\":", "[1,2,3", "\x01\x02\x03", ""}) {
    const Json reply = json_parse(client.request_raw(garbage)).value;
    EXPECT_FALSE(reply.bool_or("ok", true)) << garbage;
    EXPECT_FALSE(reply.string_or("error", "").empty()) << garbage;
  }
  // The connection survived all of it.
  EXPECT_TRUE(client.request(json_parse("{\"op\":\"ping\"}").value)
                  .bool_or("ok", false));
}

TEST_F(ServeProtocolTest, NonObjectAndUnknownOpsAreErrors) {
  Client client = Client::connect_unix(path_);
  EXPECT_FALSE(json_parse(client.request_raw("[1,2]"))
                   .value.bool_or("ok", true));
  EXPECT_FALSE(json_parse(client.request_raw("{\"op\":\"frobnicate\"}"))
                   .value.bool_or("ok", true));
  EXPECT_FALSE(json_parse(client.request_raw("{\"noop\":1}"))
                   .value.bool_or("ok", true));
}

TEST_F(ServeProtocolTest, OutOfRangeNumberGetsErrorReplyAndConnectionLives) {
  // 1e400 overflows a double; the parser rejects it at the token instead
  // of admitting an infinite rate.
  Client client = Client::connect_unix(path_);
  const std::string request =
      "{\"op\":\"admit\",\"tenant\":\"t\",\"scenario\":\"chain\","
      "\"id\":\"f1\",\"rate\":1e400,\"burst\":65536,\"target\":0.5}";
  const Json reply = json_parse(client.request_raw(request)).value;
  EXPECT_FALSE(reply.bool_or("ok", true));
  EXPECT_EQ(reply.string_or("error", ""),
            "parse error at byte " + std::to_string(request.find("1e400")) +
                ": number out of range");
  EXPECT_TRUE(client.request(json_parse("{\"op\":\"ping\"}").value)
                  .bool_or("ok", false));
}

TEST_F(ServeProtocolTest, OversizedFrameGetsErrorReplyThenClose) {
  Client client = Client::connect_unix(path_);
  // Header declaring 16 MiB — over the 1 MiB ceiling; no payload needed.
  client.send_bytes(std::string("\x01\x01\x00\x00\x00", 5));
  const Json reply = json_parse(client.recv_frame()).value;
  EXPECT_FALSE(reply.bool_or("ok", true));
  EXPECT_NE(reply.string_or("error", "").find("ceiling"),
            std::string::npos);
  // ... and the server hangs up: the next read sees EOF.
  EXPECT_THROW(client.recv_frame(), util::PreconditionError);
}

TEST_F(ServeProtocolTest, WrongProtocolVersionGetsErrorReplyThenClose) {
  Client client = Client::connect_unix(path_);
  // A peer speaking the pre-versioning framing: first byte is the high
  // length octet (0x00), which is not a known version.
  client.send_bytes(std::string("\x00\x00\x00\x0d{\"op\":\"ping\"}", 17));
  const Json reply = json_parse(client.recv_frame()).value;
  EXPECT_FALSE(reply.bool_or("ok", true));
  EXPECT_NE(reply.string_or("error", "").find("version"),
            std::string::npos);
  EXPECT_THROW(client.recv_frame(), util::PreconditionError);
}

TEST_F(ServeProtocolTest, UnknownRequestFieldsAreTolerated) {
  // Forward compatibility: a newer client may send fields this server
  // does not know; they must be ignored, not rejected.
  Client client = Client::connect_unix(path_);
  const Json reply =
      client.request(json_parse("{\"op\":\"ping\",\"future_field\":42,"
                                "\"nested\":{\"a\":[1,2]}}")
                         .value);
  EXPECT_TRUE(reply.bool_or("ok", false));
  const Json admit = client.request(
      json_parse("{\"op\":\"admit\",\"tenant\":\"t\",\"scenario\":"
                 "\"chain\",\"id\":\"f1\",\"rate\":1048576,\"burst\":65536,"
                 "\"target\":0.5,\"shiny_new_knob\":true}")
          .value);
  EXPECT_TRUE(admit.bool_or("ok", false));
  EXPECT_TRUE(admit.bool_or("admitted", false));
  // Deterministic admits carry no epsilon fields — the pre-epsilon reply
  // shape, byte for byte.
  EXPECT_EQ(admit.find("epsilon"), nullptr);
  EXPECT_EQ(admit.find("bound_kind"), nullptr);
}

TEST_F(ServeProtocolTest, EpsilonAdmitRoundTripsThroughTheWire) {
  Client client = Client::connect_unix(path_);
  const Json reply = client.request(
      json_parse("{\"op\":\"admit\",\"tenant\":\"s\",\"scenario\":"
                 "\"chain\",\"id\":\"f1\",\"rate\":1048576,\"burst\":65536,"
                 "\"target\":0.5,\"epsilon\":1e-6}")
          .value);
  ASSERT_TRUE(reply.bool_or("ok", false));
  EXPECT_TRUE(reply.bool_or("admitted", false));
  EXPECT_DOUBLE_EQ(reply.number_or("epsilon", 0.0), 1e-6);
  EXPECT_EQ(reply.string_or("bound_kind", ""), "violation_prob");
  // The stochastic bound is never worse than the deterministic one for
  // the same flow set.
  Client det = Client::connect_unix(path_);
  const Json dreply = det.request(
      json_parse("{\"op\":\"admit\",\"tenant\":\"d\",\"scenario\":"
                 "\"chain\",\"id\":\"f1\",\"rate\":1048576,\"burst\":65536,"
                 "\"target\":0.5}")
          .value);
  ASSERT_TRUE(dreply.bool_or("ok", false));
  EXPECT_LE(reply.number_or("delay_bound", 1e99),
            dreply.number_or("delay_bound", 0.0));

  // Epsilon is per tenant: a different epsilon on the same tenant errors.
  const Json mixed = client.request(
      json_parse("{\"op\":\"admit\",\"tenant\":\"s\",\"id\":\"f2\","
                 "\"rate\":1048576,\"burst\":65536,\"target\":0.5,"
                 "\"epsilon\":1e-3}")
          .value);
  EXPECT_FALSE(mixed.bool_or("ok", true));
  // Out-of-range epsilon is a request error.
  const Json bad = client.request(
      json_parse("{\"op\":\"admit\",\"tenant\":\"s\",\"id\":\"f3\","
                 "\"rate\":1048576,\"burst\":65536,\"target\":0.5,"
                 "\"epsilon\":1.5}")
          .value);
  EXPECT_FALSE(bad.bool_or("ok", true));
}

/// Certificates the exact checker has been handed in this process so far.
std::uint64_t certificates_checked() {
  return obs::Registry::global().counter("certify.certificates").value();
}

Json admit_request(const std::string& tenant, const std::string& scenario,
                   const std::string& id, bool certify) {
  Json::Object obj;
  obj.emplace("op", Json("admit"));
  obj.emplace("tenant", Json(tenant));
  obj.emplace("scenario", Json(scenario));
  obj.emplace("id", Json(id));
  obj.emplace("rate", Json(1048576.0));
  obj.emplace("burst", Json(65536.0));
  obj.emplace("target", Json(0.5));
  if (certify) obj.emplace("certify", Json(true));
  return Json(std::move(obj));
}

/// Admits two flows on `scenario` with "certify": true and the same two on
/// another tenant without it: the replies agree, and the certified ones
/// ran the exact checker.
void expect_certified_admits(const std::string& path,
                             const std::string& scenario) {
  obs::set_enabled(true);
  Client client = Client::connect_unix(path);
  for (const char* id : {"f1", "f2"}) {
    SCOPED_TRACE(scenario + " " + id);
    const Json plain =
        client.request(admit_request("plain", scenario, id, false));
    const std::uint64_t before = certificates_checked();
    const Json certified =
        client.request(admit_request("certified", scenario, id, true));
    const std::uint64_t after = certificates_checked();
    ASSERT_TRUE(plain.bool_or("ok", false));
    ASSERT_TRUE(certified.bool_or("ok", false))
        << certified.string_or("error", "");
    EXPECT_TRUE(certified.bool_or("admitted", false));
    EXPECT_EQ(certified.bool_or("admitted", false),
              plain.bool_or("admitted", true));
    EXPECT_EQ(certified.number_or("delay_bound", -1.0),
              plain.number_or("delay_bound", -2.0));
    EXPECT_GT(after, before);
  }
}

TEST_F(ServeProtocolTest, CertifiedChainAdmitRoundTripsThroughTheWire) {
  expect_certified_admits(path_, "chain");
}

TEST_F(ServeProtocolTest, CertifiedDagAdmitRoundTripsThroughTheWire) {
  expect_certified_admits(path_, "dag");
}

/// Counts one scripted session leaves behind: the fields of the `stats`
/// reply and the registry's admit-outcome deltas.
struct SessionCounts {
  double requests, request_errors, batches, admit_accepted, admit_rejected,
      latency_count;
  std::uint64_t registry_accepted, registry_rejected;
};

std::uint64_t registry_counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// On a fresh server: an accepted admit, a rejected admit, a malformed-JSON
/// frame, a ping and a pipelined batch of two frames, then `stats`.
SessionCounts scripted_session(const std::shared_ptr<Catalog>& catalog,
                               const std::string& tag) {
  ServerConfig config;
  config.socket_path = ::testing::TempDir() + "/serve_stats_" + tag + "_" +
                       std::to_string(::getpid()) + ".sock";
  Server server(config, catalog);
  server.start();
  const std::uint64_t accepted0 = registry_counter("serve.admit.accepted");
  const std::uint64_t rejected0 = registry_counter("serve.admit.rejected");
  Client client = Client::connect_unix(config.socket_path);
  const std::string admit =
      "{\"op\":\"admit\",\"tenant\":\"t\",\"scenario\":\"chain\","
      "\"rate\":1048576,\"burst\":65536,";
  const Json accepted = json_parse(client.request_raw(
                                       admit + "\"id\":\"f1\",\"target\":0.5}"))
                            .value;
  EXPECT_TRUE(accepted.bool_or("admitted", false)) << accepted.dump();
  const Json rejected = json_parse(client.request_raw(
                                       admit + "\"id\":\"f2\",\"target\":1e-9}"))
                            .value;
  EXPECT_TRUE(rejected.bool_or("ok", false)) << rejected.dump();
  EXPECT_FALSE(rejected.bool_or("admitted", true)) << rejected.dump();
  EXPECT_FALSE(json_parse(client.request_raw("{\"op\":"))
                   .value.bool_or("ok", true));
  EXPECT_TRUE(client.request(json_parse("{\"op\":\"ping\"}").value)
                  .bool_or("ok", false));
  client.send_bytes(encode_frame("{\"op\":\"ping\"}") +
                    encode_frame("{\"op\":\"query\",\"tenant\":\"t\"}"));
  for (int frame = 0; frame < 2; ++frame) {
    EXPECT_TRUE(json_parse(client.recv_frame()).value.bool_or("ok", false));
  }
  const Json stats = client.request(json_parse("{\"op\":\"stats\"}").value);
  server.stop();
  EXPECT_TRUE(stats.bool_or("ok", false)) << stats.dump();
  const Json* latency = stats.find("latency_us");
  return SessionCounts{
      stats.number_or("requests", -1.0),
      stats.number_or("request_errors", -1.0),
      stats.number_or("batches", -1.0),
      stats.number_or("admit_accepted", -1.0),
      stats.number_or("admit_rejected", -1.0),
      latency != nullptr ? latency->number_or("count", -1.0) : -1.0,
      registry_counter("serve.admit.accepted") - accepted0,
      registry_counter("serve.admit.rejected") - rejected0};
}

void expect_session_counts(const SessionCounts& c) {
  // Six frames before `stats`, which counts itself as a request and a
  // batch but not yet in the latency histogram.
  EXPECT_EQ(c.requests, 7.0);
  EXPECT_EQ(c.request_errors, 1.0);  // the malformed frame
  EXPECT_EQ(c.batches, 6.0);         // the pipelined pair is one batch
  EXPECT_EQ(c.admit_accepted, 1.0);
  EXPECT_EQ(c.admit_rejected, 1.0);
  EXPECT_EQ(c.latency_count, 6.0);
}

TEST_F(ServeProtocolTest, StatsVerbCountsTheSessionWithObsOnAndOff) {
  obs::set_enabled(true);
  const SessionCounts on = scripted_session(catalog_, "on");
  expect_session_counts(on);
  EXPECT_EQ(on.registry_accepted, 1u);
  EXPECT_EQ(on.registry_rejected, 1u);

  obs::set_enabled(false);
  const SessionCounts off = scripted_session(catalog_, "off");
  obs::set_enabled(true);
  expect_session_counts(off);
  EXPECT_EQ(off.registry_accepted, 0u);
  EXPECT_EQ(off.registry_rejected, 0u);
}

TEST_F(ServeProtocolTest, TruncatedFrameDoesNotHarmTheServer) {
  {
    Client client = Client::connect_unix(path_);
    client.send_bytes(encode_frame("{\"op\":\"ping\"}").substr(0, 9));
    // Client vanishes mid-frame.
  }
  Client fresh = Client::connect_unix(path_);
  EXPECT_TRUE(fresh.request(json_parse("{\"op\":\"ping\"}").value)
                  .bool_or("ok", false));
}

TEST_F(ServeProtocolTest, FuzzRandomFramedBytesNeverWedgeTheServer) {
  util::Xoshiro256 rng(kSeed ^ 0xc0ffee);
  for (int i = 0; i < 60; ++i) {
    Client client = Client::connect_unix(path_);
    std::string payload(rng() % 200, '\0');
    for (char& c : payload) c = static_cast<char>(rng() % 256);
    const Json reply = json_parse(client.request_raw(payload)).value;
    // Every framed payload gets a well-formed object reply with "ok".
    ASSERT_TRUE(reply.is_object()) << "case " << i;
    ASSERT_NE(reply.find("ok"), nullptr) << "case " << i;
  }
  Client check = Client::connect_unix(path_);
  EXPECT_TRUE(check.request(json_parse("{\"op\":\"ping\"}").value)
                  .bool_or("ok", false));
}

TEST_F(ServeProtocolTest, PipelinedFramesAnswerInOrder) {
  Client client = Client::connect_unix(path_);
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    wire += encode_frame("{\"op\":\"ping\",\"tag\":" +
                         std::to_string(i) + "}");
  }
  client.send_bytes(wire);
  for (int i = 0; i < 10; ++i) {
    const Json reply = json_parse(client.recv_frame()).value;
    EXPECT_TRUE(reply.bool_or("ok", false)) << "frame " << i;
  }
}

TEST_F(ServeProtocolTest, PipelinedAdmitReleaseRunInFrameOrder) {
  // Every release follows its admit on the wire, so it must find the
  // flow admitted: frames of one connection run in the order they were
  // sent, however many arrive in one batch.
  ServerConfig config;
  config.socket_path = ::testing::TempDir() + "/serve_pipelined_" +
                       std::to_string(::getpid()) + ".sock";
  config.spec_paths = {std::string(SC_SPEC_DIR) + "/quickstart.scspec"};
  Server server(config);
  server.start();
  Client client = Client::connect_unix(config.socket_path);
  constexpr int kRounds = 50;
  constexpr int kPairs = 10;
  for (int round = 0; round < kRounds; ++round) {
    std::string wire;
    for (int k = 0; k < kPairs; ++k) {
      std::string id = "\"f_";
      id += std::to_string(k);
      id += '"';
      wire += encode_frame(
          "{\"op\":\"admit\",\"tenant\":\"t\",\"scenario\":"
          "\"quickstart\",\"id\":" +
          id + ",\"rate\":1e6,\"burst\":16384,\"target\":0.5}");
      wire += encode_frame(
          "{\"op\":\"release\",\"tenant\":\"t\",\"id\":" + id + "}");
    }
    client.send_bytes(wire);
    for (int frame = 0; frame < 2 * kPairs; ++frame) {
      const Json reply = json_parse(client.recv_frame()).value;
      EXPECT_TRUE(reply.bool_or("ok", false))
          << "round " << round << " frame " << frame << ": "
          << reply.dump();
    }
  }
  server.stop();
}

}  // namespace
}  // namespace streamcalc::serve

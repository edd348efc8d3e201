// Certificate pins: the bit patterns of every emitted certificate's
// `claimed` bound and `witness_time` on the shipped specs, compared with
// values recorded in certificate_pins.txt. The emitter computes both from
// exact rationals (util::Rational), so any change to that arithmetic that
// is meant to keep its values must leave every pin byte-identical.
//
// Pin file lines: <spec> <index> <kind> <claimed bits> <witness bits>
// <context>, the bits as 16 hex digits. A failing spec prints its actual
// lines in that format.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "certify/postflight.hpp"
#include "cli/options.hpp"
#include "cli/spec.hpp"

#if !defined(SC_SPEC_DIR) || !defined(SC_LINT_SPEC_DIR) || \
    !defined(SC_PIN_FILE)
#error "SC_SPEC_DIR, SC_LINT_SPEC_DIR and SC_PIN_FILE must be defined"
#endif

namespace streamcalc::certify {
namespace {

std::string bits_hex(double v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                std::bit_cast<std::uint64_t>(v));
  return buf;
}

/// One pin line per certificate emitted for the spec at dir/name.
std::vector<std::string> actual_pins(const std::string& dir,
                                     const std::string& name) {
  std::string text;
  EXPECT_TRUE(cli::read_spec_text(dir + "/" + name, text)) << name;
  const cli::Spec spec = cli::parse_spec(text);
  std::vector<BoundCertificate> certs;
  if (spec.is_dag()) {
    const netcalc::DagModel model(spec.dag(), spec.source, spec.policy);
    certs = emit_dag_certificates(model);
  } else {
    const netcalc::PipelineModel model(spec.nodes, spec.source, spec.policy);
    certs = emit_pipeline_certificates(model);
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < certs.size(); ++i) {
    const BoundCertificate& c = certs[i];
    lines.push_back(name + " " + std::to_string(i) + " " + to_string(c.kind) +
                    " " + bits_hex(c.claimed) + " " +
                    bits_hex(c.witness_time) + " " + c.context);
  }
  return lines;
}

/// The recorded pin lines for one spec.
std::vector<std::string> recorded_pins(const std::string& name) {
  std::ifstream in(SC_PIN_FILE);
  EXPECT_TRUE(in.good()) << SC_PIN_FILE;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) lines.push_back(line);
  }
  return lines;
}

void expect_pinned(const std::string& dir, const std::string& name) {
  const std::vector<std::string> actual = actual_pins(dir, name);
  const std::vector<std::string> recorded = recorded_pins(name);
  EXPECT_FALSE(recorded.empty()) << "no pins recorded for " << name;
  if (actual != recorded) {
    std::ostringstream all;
    for (const std::string& line : actual) all << line << "\n";
    ADD_FAILURE() << "pins differ; actual pins for " << name << ":\n"
                  << all.str();
  }
}

TEST(CertificatePins, Quickstart) {
  expect_pinned(SC_SPEC_DIR, "quickstart.scspec");
}

TEST(CertificatePins, Bitw) { expect_pinned(SC_SPEC_DIR, "bitw.scspec"); }

TEST(CertificatePins, ForkJoin) {
  expect_pinned(SC_SPEC_DIR, "fork_join.scspec");
}

TEST(CertificatePins, OnoffUsers) {
  expect_pinned(SC_SPEC_DIR, "onoff_users.scspec");
}

TEST(CertificatePins, BlastBase) {
  expect_pinned(SC_LINT_SPEC_DIR, "blast_base.scspec");
}

}  // namespace
}  // namespace streamcalc::certify

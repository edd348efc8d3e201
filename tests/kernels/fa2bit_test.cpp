#include "kernels/fa2bit.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace streamcalc::kernels {
namespace {

TEST(Fa2Bit, PacksFourBasesPerByte) {
  // ACGT -> codes 0,1,2,3 LSB-first: 0b11100100 = 0xE4.
  const auto packed = fa2bit("ACGT");
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0], 0xE4);
}

TEST(Fa2Bit, LowercaseAccepted) {
  EXPECT_EQ(fa2bit("acgt"), fa2bit("ACGT"));
}

TEST(Fa2Bit, PadsFinalByte) {
  // 5 bases -> 2 bytes; tail zero-padded (codes: T=3 then A=0 padding).
  const auto packed = fa2bit("ACGTT");
  ASSERT_EQ(packed.size(), 2u);
  EXPECT_EQ(packed[1], 0x03);
}

TEST(Fa2Bit, SkipsHeadersAndWhitespace) {
  const auto packed = fa2bit(">chr1 test header\nAC GT\r\nAC\n>another\nGT");
  EXPECT_EQ(packed, fa2bit("ACGTACGT"));
}

TEST(Fa2Bit, CountsAndMasksAmbiguousBases) {
  Fa2Bit conv;
  conv.feed("ANNT");
  conv.finish();
  EXPECT_EQ(conv.bases(), 4u);
  EXPECT_EQ(conv.ambiguous(), 2u);
  // N mapped to A (code 0): A A A T.
  EXPECT_EQ(conv.packed()[0], fa2bit("AAAT")[0]);
}

TEST(Fa2Bit, StreamingChunksMatchOneShot) {
  const std::string fasta = ">h\nACGTACGTTGCA\nGGCC";
  Fa2Bit conv;
  for (std::size_t i = 0; i < fasta.size(); i += 3) {
    conv.feed(std::string_view(fasta).substr(i, 3));
  }
  conv.finish();
  EXPECT_EQ(conv.packed(), fa2bit(fasta));
}

TEST(Fa2Bit, UnpackRoundTrips) {
  const std::string bases = "ACGTTGCAATCG";
  const auto packed = fa2bit(bases);
  const auto unpacked = unpack_2bit(packed, bases.size());
  EXPECT_EQ(std::string(unpacked.begin(), unpacked.end()), bases);
}

TEST(Fa2Bit, CompressionIsFourToOne) {
  const auto packed = fa2bit(std::string(4096, 'G'));
  EXPECT_EQ(packed.size(), 1024u);  // the paper's fa_2bit 4:1 volume drop
}

TEST(Fa2Bit, UnpackRejectsOverrun) {
  const auto packed = fa2bit("ACGT");
  EXPECT_THROW(unpack_2bit(packed, 5), util::PreconditionError);
}

}  // namespace
}  // namespace streamcalc::kernels

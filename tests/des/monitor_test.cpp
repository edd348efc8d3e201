#include "des/monitor.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace streamcalc::des {
namespace {

TEST(Tally, BasicStatistics) {
  Tally t;
  t.add(1.0);
  t.add(3.0);
  t.add(5.0);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_DOUBLE_EQ(t.mean(), 3.0);
  EXPECT_EQ(t.minimum(), 1.0);
  EXPECT_EQ(t.maximum(), 5.0);
}

TEST(Tally, EmptyThrows) {
  Tally t;
  EXPECT_THROW(t.mean(), util::PreconditionError);
  EXPECT_THROW(t.minimum(), util::PreconditionError);
  EXPECT_THROW(t.maximum(), util::PreconditionError);
}

TEST(Tally, SingleValue) {
  Tally t;
  t.add(7.0);
  EXPECT_DOUBLE_EQ(t.mean(), 7.0);
  EXPECT_EQ(t.minimum(), 7.0);
  EXPECT_EQ(t.maximum(), 7.0);
}

}  // namespace
}  // namespace streamcalc::des

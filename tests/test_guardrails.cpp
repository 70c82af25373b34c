// Death tests for the documented hard-failure modes: misuse that means a
// wiring or scheduling bug must abort loudly (SUP_CHECK is active in
// release builds), never corrupt data silently.
#include <gtest/gtest.h>

#include "hinch/stream.hpp"
#include "hinch/component.hpp"
#include "media/frame.hpp"

namespace {

class DeathStyle {
 public:
  DeathStyle() { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};
DeathStyle g_death_style;

using hinch::Packet;
using hinch::Stream;

TEST(GuardrailDeathTest, StreamReadBeforeWriteAborts) {
  Stream s("bench", 3);
  EXPECT_DEATH(s.read(0), "read before write");
}

TEST(GuardrailDeathTest, StaleSlotReadAborts) {
  Stream s("bench", 2);
  s.write(0, Packet::of(std::make_shared<int>(1)));
  // Slot 0 is shared by iterations 0 and 2; reading iteration 2 before
  // its producer ran must abort, not hand out iteration 0's data.
  EXPECT_DEATH(s.read(2), "read before write");
}

TEST(GuardrailDeathTest, InPlaceAccessBeforeWriteAborts) {
  // slot() is for read-modify-write consumers; handing out an unwritten
  // slot (and marking it written, as an earlier version did) would bless
  // stale data for every later reader.
  Stream s("bench", 3);
  EXPECT_DEATH(s.slot(0), "in-place access before write");
  s.write(0, Packet::of(std::make_shared<int>(1)));
  EXPECT_DEATH(s.slot(3), "in-place access before write");  // stale tenant
}

TEST(GuardrailStreamTest, AcquireCommitPublishesSlot) {
  // Two-phase in-place production: the slot stays invisible to readers
  // until commit_slot().
  Stream s("bench", 3);
  Packet& p = s.acquire_slot(0);
  EXPECT_FALSE(s.has(0));
  p = Packet::of(std::make_shared<int>(42));
  s.commit_slot(0);
  EXPECT_TRUE(s.has(0));
  EXPECT_EQ(*s.read(0).get<int>(), 42);
  // After commit, in-place access is legal.
  EXPECT_EQ(*s.slot(0).get<int>(), 42);
}

TEST(GuardrailDeathTest, DoubleAcquireAborts) {
  Stream s("bench", 2);
  s.acquire_slot(1);
  s.commit_slot(1);
  EXPECT_DEATH(s.acquire_slot(1), "slot acquired twice");
}

TEST(GuardrailDeathTest, PacketTypeMismatchAborts) {
  Packet p = Packet::of(std::make_shared<int>(7));
  EXPECT_DEATH(p.get<double>(), "type mismatch");
}

TEST(GuardrailDeathTest, EmptyPacketAborts) {
  Packet p;
  EXPECT_DEATH(p.get<int>(), "empty stream slot");
}

TEST(GuardrailDeathTest, BadSliceArgumentsAbort) {
  int r0 = 0, r1 = 0;
  EXPECT_DEATH(hinch::slice_rows(10, 5, 5, &r0, &r1), "CHECK failed");
  EXPECT_DEATH(hinch::slice_rows(10, -1, 5, &r0, &r1), "CHECK failed");
}

TEST(GuardrailDeathTest, BadFrameDimensionsAbort) {
  EXPECT_DEATH(media::Frame(media::PixelFormat::kGray, 0, 10),
               "CHECK failed");
}

}  // namespace

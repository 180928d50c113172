// Fiber-layer tests: switch ordering, stack alignment at entry, per-fiber
// floating-point control state, exceptions inside a fiber, and stack reuse
// through the per-thread pool (including stacks of fibers destroyed while
// suspended).
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernel/fiber.hpp"

namespace adriatic::kern {
namespace {

/// Restores round-to-nearest however a test ends.
struct RoundingGuard {
  ~RoundingGuard() { std::fesetround(FE_TONEAREST); }
};

/// Keeps the optimiser from reasoning about a value's origin.
template <typename T>
T opaque(T v) {
  asm volatile("" : "+r"(v));
  return v;
}

/// Runtime x/3 in the current SSE rounding mode. Round-to-nearest rounds
/// 1/3 down and -1/3 up, so FE_UPWARD shows on the first and FE_DOWNWARD on
/// the second.
double third_of(double x) {
  volatile double num = x;
  volatile double three = 3.0;
  return num / three;
}
constexpr double kThirdNearest = 1.0 / 3.0;

[[gnu::noinline]] std::uintptr_t aligned_local_address() {
  alignas(16) volatile char probe[16] = {};
  probe[0] = 1;
  return opaque(reinterpret_cast<std::uintptr_t>(&probe[0]));
}

TEST(Fiber, ResumeYieldOrderingAndState) {
  std::vector<std::string> log;
  bool inside = false;
  Fiber f([&] {
    inside = Fiber::in_fiber();
    log.push_back("f1");
    Fiber::yield();
    log.push_back("f2");
    Fiber::yield();
    log.push_back("f3");
  });
  EXPECT_FALSE(Fiber::in_fiber());
  EXPECT_FALSE(f.finished());
  for (int i = 1; i <= 3; ++i) {
    log.push_back("s" + std::to_string(i));
    f.resume();
    EXPECT_FALSE(Fiber::in_fiber());
    EXPECT_EQ(f.finished(), i == 3);
  }
  EXPECT_TRUE(inside);
  EXPECT_EQ(log, (std::vector<std::string>{"s1", "f1", "s2", "f2", "s3", "f3"}));
  f.resume();  // no-op once finished
  EXPECT_EQ(log.size(), 6u);
}

TEST(Fiber, StackIsSixteenByteAlignedAtEntry) {
  std::uintptr_t first = 1;
  std::uintptr_t after_yield = 1;
  Fiber f([&] {
    first = aligned_local_address();
    Fiber::yield();
    after_yield = aligned_local_address();
  });
  f.resume();
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(first % 16, 0u);
  EXPECT_EQ(after_yield % 16, 0u);
}

TEST(Fiber, RoundingModeIsPerFiber) {
  RoundingGuard guard;
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  int mode_after_resume = -1;
  double third_after_resume = 0;
  Fiber f([&] {
    std::fesetround(FE_UPWARD);
    Fiber::yield();
    mode_after_resume = std::fegetround();
    third_after_resume = third_of(1.0);
  });
  f.resume();
  // The fiber's FE_UPWARD stays with the fiber: x87 control word and MXCSR.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(third_of(1.0), kThirdNearest);
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(mode_after_resume, FE_UPWARD);
  EXPECT_GT(third_after_resume, kThirdNearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, NewFiberInheritsCreatorsRoundingMode) {
  RoundingGuard guard;
  ASSERT_EQ(std::fesetround(FE_DOWNWARD), 0);
  int mode = -1;
  double value = 1;
  Fiber f([&] {
    mode = std::fegetround();
    value = third_of(-1.0);
  });
  std::fesetround(FE_TONEAREST);
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(mode, FE_DOWNWARD);
  EXPECT_LT(value, -kThirdNearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, ExceptionThrownAndCaughtAcrossYield) {
  std::string caught;
  Fiber f([&] {
    try {
      Fiber::yield();
      throw std::runtime_error("thrown inside the fiber");
    } catch (const std::runtime_error& e) {
      Fiber::yield();  // suspended inside the handler
      caught = e.what();
    }
  });
  f.resume();
  EXPECT_TRUE(caught.empty());
  f.resume();
  EXPECT_TRUE(caught.empty());
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(caught, "thrown inside the fiber");
  EXPECT_TRUE(f.finished());
}

[[gnu::noinline]] void park_with_local_array() {
  volatile char buf[256];
  buf[0] = opaque<char>(1);
  Fiber::yield();  // never resumed: the frame is abandoned
  buf[1] = buf[0];
}

[[gnu::noinline]] unsigned fill_large_local() {
  char big[8192];
  std::memset(opaque(&big[0]), 0x5a, sizeof(big));
  unsigned sum = 0;
  for (const char c : big) sum += static_cast<unsigned char>(c);
  return sum;
}

TEST(Fiber, ThousandFibersRunThroughTheStackPool) {
  constexpr int kFibers = 1000;
  long total = 0;
  unsigned filled = 0;
  for (int i = 0; i < kFibers; ++i) {
    if (i % 2 == 0) {
      Fiber f([&, i] {
        total += i;
        Fiber::yield();
        filled += fill_large_local();
        total += 1;
      });
      f.resume();
      f.resume();
      EXPECT_TRUE(f.finished());
    } else {
      // Destroyed while suspended; the next fiber reuses this stack.
      Fiber f([&, i] {
        total += i;
        park_with_local_array();
      });
      f.resume();
      EXPECT_FALSE(f.finished());
    }
  }
  EXPECT_EQ(total, static_cast<long>(kFibers) * (kFibers - 1) / 2 + kFibers / 2);
  EXPECT_EQ(filled, (kFibers / 2) * 8192u * 0x5au);
}

}  // namespace
}  // namespace adriatic::kern

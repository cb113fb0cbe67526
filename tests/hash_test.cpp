// Unit and property tests for the hash substrate. The protocols' analysis
// (Theorem 1) assumes uniform slot choice, so beyond reference vectors these
// tests chi-square every hash family's slot distribution.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "hash/fnv.h"
#include "hash/murmur.h"
#include "hash/siphash.h"
#include "hash/slot_hash.h"
#include "util/random.h"

namespace {

using rfid::hash::HashKind;
using rfid::hash::SipKey;
using rfid::hash::SlotHasher;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

// ------------------------------------------------------------------- fnv --

TEST(Fnv, EmptyInputIsOffsetBasis) {
  EXPECT_EQ(rfid::hash::fnv1a64({}), rfid::hash::kFnv64OffsetBasis);
  EXPECT_EQ(rfid::hash::fnv1a32({}), rfid::hash::kFnv32OffsetBasis);
}

TEST(Fnv, KnownVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(rfid::hash::fnv1a64(bytes_of("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(rfid::hash::fnv1a64(bytes_of("foobar")), 0x85944171f73967e8ULL);
  EXPECT_EQ(rfid::hash::fnv1a32(bytes_of("a")), 0xe40c292cU);
  EXPECT_EQ(rfid::hash::fnv1a32(bytes_of("foobar")), 0xbf9cf968U);
}

TEST(Fnv, U64FastPathMatchesByteHash) {
  for (const std::uint64_t v : {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL}) {
    std::vector<std::byte> raw(8);
    std::memcpy(raw.data(), &v, 8);
    EXPECT_EQ(rfid::hash::fnv1a64_u64(v), rfid::hash::fnv1a64(raw));
  }
}

// ---------------------------------------------------------------- murmur --

TEST(Murmur, Fmix64IsBijectiveOnSamples) {
  // A bijection cannot collide; sample heavily.
  std::set<std::uint64_t> outputs;
  rfid::util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    outputs.insert(rfid::hash::murmur3_fmix64(rng()));
  }
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(Murmur, Fmix64FixedPointZero) {
  EXPECT_EQ(rfid::hash::murmur3_fmix64(0), 0u);
}

// --------------------------------------------------------------- siphash --

TEST(SipHash, ReferenceVectorFromSpec) {
  // Appendix A of the SipHash paper: key 00..0f, message 00..0e -> value
  // 0xa129ca6149be45e5 for the 15-byte message.
  SipKey key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  std::vector<std::byte> msg(15);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::byte>(i);
  EXPECT_EQ(rfid::hash::siphash24(msg, key), 0xa129ca6149be45e5ULL);
}

TEST(SipHash, EmptyMessageMatchesSpec) {
  SipKey key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  EXPECT_EQ(rfid::hash::siphash24({}, key), 0x726fdb47dd0e0e31ULL);
}

TEST(SipHash, EightByteMessageMatchesSpec) {
  // Same vector table, 8-byte message 00..07 -> 0x93f5f5799a932462.
  SipKey key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  std::vector<std::byte> msg(8);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::byte>(i);
  EXPECT_EQ(rfid::hash::siphash24(msg, key), 0x93f5f5799a932462ULL);
}

TEST(SipHash, U64FastPathMatchesByteHash) {
  SipKey key{0x1234, 0x5678};
  for (const std::uint64_t v : {0ULL, 42ULL, 0xfeedfacecafebeefULL}) {
    std::vector<std::byte> raw(8);
    std::memcpy(raw.data(), &v, 8);
    EXPECT_EQ(rfid::hash::siphash24_u64(v, key), rfid::hash::siphash24(raw, key));
  }
}

TEST(SipHash, KeyChangesOutput) {
  const std::uint64_t a = rfid::hash::siphash24_u64(99, {1, 2});
  const std::uint64_t b = rfid::hash::siphash24_u64(99, {1, 3});
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------- slot hash --

TEST(SlotHasher, SlotAlwaysWithinFrame) {
  rfid::util::Rng rng(5);
  for (const HashKind kind :
       {HashKind::kFnv1a64, HashKind::kMurmurFmix64, HashKind::kSipHash24}) {
    const SlotHasher hasher(kind);
    for (const std::uint32_t f : {1u, 2u, 7u, 100u, 65536u}) {
      for (int i = 0; i < 200; ++i) {
        EXPECT_LT(hasher.slot(rng(), rng(), f), f);
      }
    }
  }
}

TEST(SlotHasher, DeterministicPerInputs) {
  const SlotHasher hasher;
  EXPECT_EQ(hasher.slot(11, 22, 1000, 3), hasher.slot(11, 22, 1000, 3));
  EXPECT_EQ(hasher.mix(11, 22, 3), hasher.mix(11, 22, 3));
}

TEST(SlotHasher, CounterChangesSlotChoice) {
  // The UTRP anti-rewind property: a different counter re-randomizes the
  // slot. Statistically, across many tags ~1/f stay put; assert most move.
  const SlotHasher hasher;
  rfid::util::Rng rng(6);
  int moved = 0;
  constexpr int kTags = 1000;
  for (int i = 0; i < kTags; ++i) {
    const std::uint64_t id = rng();
    if (hasher.slot(id, 7, 512, 1) != hasher.slot(id, 7, 512, 2)) ++moved;
  }
  EXPECT_GT(moved, kTags * 9 / 10);
}

TEST(SlotHasher, RandomNumberChangesSlotChoice) {
  const SlotHasher hasher;
  rfid::util::Rng rng(8);
  int moved = 0;
  constexpr int kTags = 1000;
  for (int i = 0; i < kTags; ++i) {
    const std::uint64_t id = rng();
    if (hasher.slot(id, 1, 512) != hasher.slot(id, 2, 512)) ++moved;
  }
  EXPECT_GT(moved, kTags * 9 / 10);
}

TEST(SlotHasher, ToStringCoversAllKinds) {
  EXPECT_EQ(rfid::hash::to_string(HashKind::kFnv1a64), "fnv1a64");
  EXPECT_EQ(rfid::hash::to_string(HashKind::kMurmurFmix64), "murmur-fmix64");
  EXPECT_EQ(rfid::hash::to_string(HashKind::kSipHash24), "siphash-2-4");
}

// Parameterized uniformity sweep: every hash family must distribute random
// tag IDs across slots uniformly enough for Theorem 1 to hold.
class SlotUniformity : public ::testing::TestWithParam<HashKind> {};

TEST_P(SlotUniformity, ChiSquareOverSlots) {
  const SlotHasher hasher(GetParam());
  rfid::util::Rng rng(99);
  constexpr std::uint32_t kFrame = 128;
  constexpr int kDraws = 128 * 500;
  std::vector<int> counts(kFrame, 0);
  const std::uint64_t r = rng();
  for (int i = 0; i < kDraws; ++i) {
    ++counts[hasher.slot(rng(), r, kFrame)];
  }
  double chi2 = 0.0;
  const double expected = static_cast<double>(kDraws) / kFrame;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 127 dof; 99.9% quantile ~ 181.4.
  EXPECT_LT(chi2, 181.4) << "slot distribution skewed for "
                         << rfid::hash::to_string(GetParam());
}

TEST_P(SlotUniformity, LowBitAvalancheOnCounter) {
  // Flipping just the counter (ct -> ct+1) must flip about half the output
  // bits of the mix; weak mixing here would correlate UTRP re-seeds.
  const SlotHasher hasher(GetParam());
  rfid::util::Rng rng(123);
  double total_flips = 0.0;
  constexpr int kSamples = 2000;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t id = rng();
    const std::uint64_t d = hasher.mix(id, 5, 1) ^ hasher.mix(id, 5, 2);
    total_flips += std::popcount(d);
  }
  const double mean_flips = total_flips / kSamples;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

INSTANTIATE_TEST_SUITE_P(AllHashKinds, SlotUniformity,
                         ::testing::Values(HashKind::kFnv1a64,
                                           HashKind::kMurmurFmix64,
                                           HashKind::kSipHash24),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case HashKind::kFnv1a64: return "Fnv";
                             case HashKind::kMurmurFmix64: return "Murmur";
                             default: return "SipHash";
                           }
                         });

}  // namespace

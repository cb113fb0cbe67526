#include "tag/columnar.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "util/expect.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RFIDMON_COLUMNAR_SIMD 1
#include <immintrin.h>
#endif

namespace rfid::tag {

namespace {

/// Multiply-shift range reduction, identical to SlotHasher::slot.
[[nodiscard]] constexpr std::uint32_t reduce(std::uint64_t h,
                                             std::uint32_t frame_size) noexcept {
  return static_cast<std::uint32_t>(
      (static_cast<__uint128_t>(h) * frame_size) >> 64);
}

[[nodiscard]] constexpr std::size_t bitmap_words(std::size_t n) noexcept {
  return (n + 63) / 64;
}

/// Runs `body(mix)` with the hash-kind dispatch hoisted to one switch:
/// `mix` is a callable uint64 -> uint64 matching SlotHasher::mix for the
/// hasher's configured kind.
template <class Body>
void with_mixer(const hash::SlotHasher& hasher, Body&& body) {
  switch (hasher.kind()) {
    case hash::HashKind::kFnv1a64:
      body([](std::uint64_t x) noexcept { return hash::fnv1a64_u64(x); });
      return;
    case hash::HashKind::kMurmurFmix64:
      body([](std::uint64_t x) noexcept { return hash::murmur3_fmix64(x); });
      return;
    case hash::HashKind::kSipHash24:
      body([key = hasher.sip_key()](std::uint64_t x) noexcept {
        return hash::siphash24_u64(x, key);
      });
      return;
  }
  body([](std::uint64_t x) noexcept { return hash::murmur3_fmix64(x); });
}

#if defined(RFIDMON_COLUMNAR_SIMD)

// GCC 12's avx512 intrinsics headers trip -Wmaybe-uninitialized (and, in
// _mm512_reduce_min_epu64, -Wuninitialized) when their _mm512_undefined_*
// helpers inline into user code; the values are fully overwritten before
// use (a long-standing GCC false positive).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// ---------------------------------------------------- SIMD slot kernels ----
//
// Vector twins of the murmur/FNV slot loops, selected at runtime (the
// binary still runs on any x86-64). Every operation below is exact integer
// arithmetic, so the lanes are bit-identical to the scalar reference — the
// property tests in tests/columnar_test.cpp execute whichever path this
// machine dispatches to and compare element-wise against Tag::trp_slot.
// SipHash keeps the scalar loop: its 2x4 ARX rounds vectorize poorly and it
// is the "strongest, slowest" option, not the hot default.
//
// The multiply-shift reduction (h * f) >> 64 is computed without 128-bit
// lanes: with h = h_hi * 2^32 + h_lo and f < 2^32,
//   (h * f) >> 64 == (h_hi * f + ((h_lo * f) >> 32)) >> 32
// exactly (both partial products fit 64 bits; the discarded low half of
// h_lo * f cannot carry into bit 64).

/// The multiply-shift reduction above, on 8 hash lanes.
__attribute__((target("avx512f"), always_inline)) inline __m512i reduce_lanes(
    __m512i h, __m512i vf) {
  const __m512i lo = _mm512_mul_epu32(h, vf);
  const __m512i hi = _mm512_mul_epu32(_mm512_srli_epi64(h, 32), vf);
  return _mm512_srli_epi64(
      _mm512_add_epi64(hi, _mm512_srli_epi64(lo, 32)), 32);
}

/// murmur3_fmix64 or fnv1a64_u64 on 8 lanes.
template <hash::HashKind Kind>
__attribute__((target("avx512f,avx512dq"), always_inline)) inline __m512i
mix_lanes(__m512i x) {
  if constexpr (Kind == hash::HashKind::kMurmurFmix64) {
    const __m512i k1 =
        _mm512_set1_epi64(static_cast<long long>(0xff51afd7ed558ccdULL));
    const __m512i k2 =
        _mm512_set1_epi64(static_cast<long long>(0xc4ceb9fe1a85ec53ULL));
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
    x = _mm512_mullo_epi64(x, k1);
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
    x = _mm512_mullo_epi64(x, k2);
    return _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  } else {
    static_assert(Kind == hash::HashKind::kFnv1a64);
    const __m512i prime =
        _mm512_set1_epi64(static_cast<long long>(hash::kFnv64Prime));
    const __m512i mask = _mm512_set1_epi64(0xff);
    __m512i h =
        _mm512_set1_epi64(static_cast<long long>(hash::kFnv64OffsetBasis));
    for (int b = 0; b < 8; ++b) {
      h = _mm512_mullo_epi64(_mm512_xor_si512(h, _mm512_and_si512(x, mask)),
                             prime);
      x = _mm512_srli_epi64(x, 8);
    }
    return h;
  }
}

/// out[i] = (murmur3_fmix64(words[i] ^ r) * f) >> 64. Two independent
/// 8-lane streams per step (the fmix chain is serial within a lane group —
/// a second stream fills its multiply latency) plus a ~2 KiB-ahead software
/// prefetch; at n = 10^6 the loop is L3-latency-bound, not compute-bound,
/// and the prefetch is worth more than any extra unrolling.
__attribute__((target("avx512f,avx512dq"))) void trp_slots_murmur_avx512(
    const std::uint64_t* words, std::size_t n, std::uint64_t r,
    std::uint32_t frame_size, std::uint32_t* out) {
  constexpr hash::HashKind kMurmur = hash::HashKind::kMurmurFmix64;
  const __m512i vr = _mm512_set1_epi64(static_cast<long long>(r));
  const __m512i vf = _mm512_set1_epi64(static_cast<long long>(frame_size));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __builtin_prefetch(words + i + 256);
    __builtin_prefetch(words + i + 264);
    __builtin_prefetch(out + i + 256, 1);
    const __m512i a = mix_lanes<kMurmur>(
        _mm512_xor_si512(_mm512_loadu_si512(words + i), vr));
    const __m512i b = mix_lanes<kMurmur>(
        _mm512_xor_si512(_mm512_loadu_si512(words + i + 8), vr));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi64_epi32(reduce_lanes(a, vf)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8),
                        _mm512_cvtepi64_epi32(reduce_lanes(b, vf)));
  }
  for (; i + 8 <= n; i += 8) {
    const __m512i x = mix_lanes<kMurmur>(
        _mm512_xor_si512(_mm512_loadu_si512(words + i), vr));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi64_epi32(reduce_lanes(x, vf)));
  }
  for (; i < n; ++i) {
    out[i] = reduce(hash::murmur3_fmix64(words[i] ^ r), frame_size);
  }
}

/// FNV-1a over the 8 little-endian bytes of words[i] ^ r, then reduce.
__attribute__((target("avx512f,avx512dq"))) void trp_slots_fnv_avx512(
    const std::uint64_t* words, std::size_t n, std::uint64_t r,
    std::uint32_t frame_size, std::uint32_t* out) {
  const __m512i vr = _mm512_set1_epi64(static_cast<long long>(r));
  const __m512i vf = _mm512_set1_epi64(static_cast<long long>(frame_size));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __builtin_prefetch(words + i + 256);
    __builtin_prefetch(out + i + 256, 1);
    const __m512i h = mix_lanes<hash::HashKind::kFnv1a64>(
        _mm512_xor_si512(_mm512_loadu_si512(words + i), vr));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi64_epi32(reduce_lanes(h, vf)));
  }
  for (; i < n; ++i) {
    out[i] = reduce(hash::fnv1a64_u64(words[i] ^ r), frame_size);
  }
}

/// Low 64 bits of a 64x64 lane multiply on AVX2 (no native vpmullq):
/// a*b mod 2^64 == a_lo*b_lo + ((a_hi*b_lo + a_lo*b_hi) << 32).
__attribute__((target("avx2"), always_inline)) inline __m256i mul64_avx2(
    __m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// Keep the low 32 bits of each 64-bit lane as 4 packed uint32.
__attribute__((target("avx2"), always_inline)) inline __m128i pack_lo32_avx2(
    __m256i x) {
  const __m256i perm = _mm256_permutevar8x32_epi32(
      x, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
  return _mm256_castsi256_si128(perm);
}

__attribute__((target("avx2"))) void trp_slots_murmur_avx2(
    const std::uint64_t* words, std::size_t n, std::uint64_t r,
    std::uint32_t frame_size, std::uint32_t* out) {
  const __m256i vr = _mm256_set1_epi64x(static_cast<long long>(r));
  const __m256i k1 =
      _mm256_set1_epi64x(static_cast<long long>(0xff51afd7ed558ccdULL));
  const __m256i k2 =
      _mm256_set1_epi64x(static_cast<long long>(0xc4ceb9fe1a85ec53ULL));
  const __m256i vf = _mm256_set1_epi64x(static_cast<long long>(frame_size));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __builtin_prefetch(words + i + 128);
    __builtin_prefetch(out + i + 128, 1);
    __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i)), vr);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
    x = mul64_avx2(x, k1);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
    x = mul64_avx2(x, k2);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
    const __m256i lo = _mm256_mul_epu32(x, vf);
    const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), vf);
    const __m256i slot = _mm256_srli_epi64(
        _mm256_add_epi64(hi, _mm256_srli_epi64(lo, 32)), 32);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     pack_lo32_avx2(slot));
  }
  for (; i < n; ++i) {
    out[i] = reduce(hash::murmur3_fmix64(words[i] ^ r), frame_size);
  }
}

__attribute__((target("avx2"))) void trp_slots_fnv_avx2(
    const std::uint64_t* words, std::size_t n, std::uint64_t r,
    std::uint32_t frame_size, std::uint32_t* out) {
  const __m256i vr = _mm256_set1_epi64x(static_cast<long long>(r));
  const __m256i basis =
      _mm256_set1_epi64x(static_cast<long long>(hash::kFnv64OffsetBasis));
  const __m256i prime =
      _mm256_set1_epi64x(static_cast<long long>(hash::kFnv64Prime));
  const __m256i mask = _mm256_set1_epi64x(0xff);
  const __m256i vf = _mm256_set1_epi64x(static_cast<long long>(frame_size));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __builtin_prefetch(words + i + 128);
    __builtin_prefetch(out + i + 128, 1);
    __m256i wb = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i)), vr);
    __m256i h = basis;
    for (int b = 0; b < 8; ++b) {
      h = mul64_avx2(_mm256_xor_si256(h, _mm256_and_si256(wb, mask)), prime);
      wb = _mm256_srli_epi64(wb, 8);
    }
    const __m256i lo = _mm256_mul_epu32(h, vf);
    const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(h, 32), vf);
    const __m256i slot = _mm256_srli_epi64(
        _mm256_add_epi64(hi, _mm256_srli_epi64(lo, 32)), 32);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     pack_lo32_avx2(slot));
  }
  for (; i < n; ++i) {
    out[i] = reduce(hash::fnv1a64_u64(words[i] ^ r), frame_size);
  }
}

// ----------------------------------------------- UTRP walk kernels ----
//
// The live columns of a UTRP walk (UtrpLiveTags) are dense, so a re-seed
// is one straight pass: counter + 1, hash, reduce, store the pick and keep
// the lane-wise minimum. The last partial vector runs under a lane mask,
// so no kernel reads or writes past a column.

/// One re-seed over n live tags (UtrpLiveTags::receive_seed).
template <hash::HashKind Kind>
__attribute__((target("avx512f,avx512dq"))) std::uint32_t utrp_pass_avx512(
    const std::uint64_t* words, std::uint64_t* counters, std::size_t n,
    std::uint64_t r, std::uint32_t frame_size, std::uint32_t* picks) {
  const __m512i vr = _mm512_set1_epi64(static_cast<long long>(r));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i vf = _mm512_set1_epi64(static_cast<long long>(frame_size));
  __m512i low = _mm512_set1_epi64(-1);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 lanes =
        n - i >= 8 ? __mmask8{0xff}
                   : static_cast<__mmask8>((1U << (n - i)) - 1);
    const __m512i ct = _mm512_add_epi64(
        _mm512_maskz_loadu_epi64(lanes, counters + i), one);
    _mm512_mask_storeu_epi64(counters + i, lanes, ct);
    const __m512i x = _mm512_xor_si512(
        _mm512_xor_si512(_mm512_maskz_loadu_epi64(lanes, words + i), vr), ct);
    const __m512i slot = reduce_lanes(mix_lanes<Kind>(x), vf);
    _mm512_mask_cvtepi64_storeu_epi32(picks + i, lanes, slot);
    low = _mm512_mask_min_epu64(low, lanes, low, slot);
  }
  return static_cast<std::uint32_t>(_mm512_reduce_min_epu64(low));
}

/// Appends every j < n with picks[j] == slot to `hits`, ascending.
__attribute__((target("avx512f"))) void find_picks_avx512(
    const std::uint32_t* picks, std::size_t n, std::uint32_t slot,
    std::vector<std::size_t>& hits) {
  const __m512i vs = _mm512_set1_epi32(static_cast<int>(slot));
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 lanes =
        n - i >= 16 ? __mmask16{0xffff}
                    : static_cast<__mmask16>((1U << (n - i)) - 1);
    unsigned equal = _mm512_mask_cmpeq_epi32_mask(
        lanes, _mm512_maskz_loadu_epi32(lanes, picks + i), vs);
    while (equal != 0) {
      hits.push_back(i + static_cast<std::size_t>(std::countr_zero(equal)));
      equal &= equal - 1;
    }
  }
}

/// 2 with AVX-512F and DQ, 1 with AVX2, 0 otherwise.
[[nodiscard]] int simd_level() {
  static const int level = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
      return 2;
    }
    return __builtin_cpu_supports("avx2") ? 1 : 0;
  }();
  return level;
}

using SlotsKernel = void (*)(const std::uint64_t*, std::size_t, std::uint64_t,
                             std::uint32_t, std::uint32_t*);

/// The widest vector kernel this CPU executes for `kind`, or nullptr for
/// "use the scalar loop" (SipHash, or a pre-AVX2 machine).
[[nodiscard]] SlotsKernel pick_slots_kernel(hash::HashKind kind) {
  const int level = simd_level();
  switch (kind) {
    case hash::HashKind::kMurmurFmix64:
      if (level == 2) return &trp_slots_murmur_avx512;
      if (level == 1) return &trp_slots_murmur_avx2;
      return nullptr;
    case hash::HashKind::kFnv1a64:
      if (level == 2) return &trp_slots_fnv_avx512;
      if (level == 1) return &trp_slots_fnv_avx2;
      return nullptr;
    case hash::HashKind::kSipHash24:
      return nullptr;
  }
  return nullptr;
}

using UtrpPass = std::uint32_t (*)(const std::uint64_t*, std::uint64_t*,
                                   std::size_t, std::uint64_t, std::uint32_t,
                                   std::uint32_t*);

/// The vector re-seed pass for `kind`, or nullptr for "use the scalar loop"
/// (SipHash, or a machine without AVX-512F/DQ).
[[nodiscard]] UtrpPass pick_utrp_pass(hash::HashKind kind) {
  if (simd_level() != 2) return nullptr;
  switch (kind) {
    case hash::HashKind::kMurmurFmix64:
      return &utrp_pass_avx512<hash::HashKind::kMurmurFmix64>;
    case hash::HashKind::kFnv1a64:
      return &utrp_pass_avx512<hash::HashKind::kFnv1a64>;
    case hash::HashKind::kSipHash24:
      return nullptr;
  }
  return nullptr;
}

#pragma GCC diagnostic pop

#endif  // RFIDMON_COLUMNAR_SIMD

}  // namespace

ColumnarTagSet ColumnarTagSet::from_tags(std::span<const Tag> tags) {
  ColumnarTagSet out;
  const std::size_t n = tags.size();
  out.ids_.reserve(n);
  out.slot_words_.reserve(n);
  out.counters_.reserve(n);
  out.silenced_.assign(bitmap_words(n), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Tag& t = tags[i];
    out.ids_.push_back(t.id());
    out.slot_words_.push_back(t.id().slot_word());
    out.counters_.push_back(t.counter());
    if (t.silenced()) out.silenced_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return out;
}

ColumnarTagSet ColumnarTagSet::from_ids(std::span<const TagId> ids) {
  ColumnarTagSet out;
  const std::size_t n = ids.size();
  out.ids_.assign(ids.begin(), ids.end());
  out.slot_words_.reserve(n);
  for (const TagId& id : ids) out.slot_words_.push_back(id.slot_word());
  out.counters_.assign(n, 0);
  out.silenced_.assign(bitmap_words(n), 0);
  return out;
}

Tag ColumnarTagSet::tag(std::size_t i) const {
  Tag t(ids_[i], counters_[i]);
  if (silenced(i)) t.silence();
  return t;
}

TagSet ColumnarTagSet::to_tag_set() const {
  std::vector<Tag> tags;
  tags.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) tags.push_back(tag(i));
  return TagSet(std::move(tags));
}

void ColumnarTagSet::restore(WalkState state) {
  RFID_EXPECT(state.counters.size() == counters_.size() &&
                  state.silenced.size() == silenced_.size(),
              "walk state saved from another tag set");
  counters_ = std::move(state.counters);
  silenced_ = std::move(state.silenced);
}

void bulk_trp_slots(const hash::SlotHasher& hasher,
                    std::span<const std::uint64_t> slot_words, std::uint64_t r,
                    std::uint32_t frame_size, std::span<std::uint32_t> out) {
  RFID_EXPECT(frame_size >= 1, "frame size must be positive");
  RFID_EXPECT(out.size() == slot_words.size(),
              "output span must cover the population");
#if defined(RFIDMON_COLUMNAR_SIMD)
  if (const SlotsKernel kernel = pick_slots_kernel(hasher.kind())) {
    kernel(slot_words.data(), slot_words.size(), r, frame_size, out.data());
    return;
  }
#endif
  with_mixer(hasher, [&](auto mix) {
    const std::size_t n = slot_words.size();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = reduce(mix(slot_words[i] ^ r), frame_size);
    }
  });
}

UtrpLiveTags::UtrpLiveTags(const hash::SlotHasher& hasher, std::size_t n)
    : hasher_(hasher),
      live_(n),
      words_(n),
      counters_(n),
      index_(n),
      picks_(n) {
  std::iota(index_.begin(), index_.end(), std::size_t{0});
#if defined(RFIDMON_COLUMNAR_SIMD)
  pass_ = pick_utrp_pass(hasher.kind());
  if (simd_level() == 2) find_ = &find_picks_avx512;
#endif
}

UtrpLiveTags::UtrpLiveTags(const hash::SlotHasher& hasher,
                           const ColumnarTagSet& tags)
    : UtrpLiveTags(hasher, tags.size()) {
  std::ranges::copy(tags.slot_words(), words_.begin());
  std::ranges::copy(tags.counters(), counters_.begin());
}

UtrpLiveTags::UtrpLiveTags(const hash::SlotHasher& hasher, ColumnarTagSet* tags)
    : UtrpLiveTags(hasher, std::as_const(*tags)) {
  columns_ = tags;
  tags->begin_round();
}

UtrpLiveTags::UtrpLiveTags(const hash::SlotHasher& hasher, std::span<Tag> tags)
    : UtrpLiveTags(hasher, tags.size()) {
  tags_ = tags;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    tags[i].begin_round();
    words_[i] = tags[i].id().slot_word();
    counters_[i] = tags[i].counter();
  }
}

UtrpLiveTags::~UtrpLiveTags() {
  for (std::size_t j = 0; j < live_; ++j) write_back(j, false);
}

void UtrpLiveTags::write_back(std::size_t j, bool replied) noexcept {
  const std::size_t i = index_[j];
  if (columns_ != nullptr) {
    columns_->counters()[i] = counters_[j];
    if (replied) columns_->silence(i);
  } else if (!tags_.empty()) {
    Tag& tag = tags_[i];
    tag = Tag(tag.id(), counters_[j]);
    if (replied) tag.silence();
  }
}

std::uint32_t UtrpLiveTags::receive_seed(std::uint64_t r,
                                         std::uint32_t frame_size) {
  RFID_EXPECT(frame_size >= 1, "frame size must be positive");
  if (pass_ != nullptr) {
    return pass_(words_.data(), counters_.data(), live_, r, frame_size,
                 picks_.data());
  }
  std::uint32_t low = std::numeric_limits<std::uint32_t>::max();
  with_mixer(hasher_, [&](auto mix) {
    for (std::size_t j = 0; j < live_; ++j) {
      const std::uint64_t ct = ++counters_[j];
      const std::uint32_t pick = reduce(mix(words_[j] ^ r ^ ct), frame_size);
      picks_[j] = pick;
      low = std::min(low, pick);
    }
  });
  return low;
}

std::uint32_t UtrpLiveTags::min_pick() const noexcept {
  std::uint32_t low = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t j = 0; j < live_; ++j) low = std::min(low, picks_[j]);
  return low;
}

std::size_t UtrpLiveTags::reply(std::uint32_t slot) {
  hits_.clear();
  if (find_ != nullptr) {
    find_(picks_.data(), live_, slot, hits_);
  } else {
    for (std::size_t j = 0; j < live_; ++j) {
      if (picks_[j] == slot) hits_.push_back(j);
    }
  }
  // Swap-remove from the highest position down: the tag moved into each
  // hole comes from the end of the live set, past every hit not yet
  // removed, so it did not reply. It carries its pick: after a reply the
  // reader did not see, the walk reads the picks again (min_pick).
  for (auto hit = hits_.rbegin(); hit != hits_.rend(); ++hit) {
    const std::size_t j = *hit;
    write_back(j, true);
    --live_;
    words_[j] = words_[live_];
    counters_[j] = counters_[live_];
    index_[j] = index_[live_];
    picks_[j] = picks_[live_];
  }
  return hits_.size();
}

bits::Bitstring bulk_trp_frame(const hash::SlotHasher& hasher,
                               std::span<const std::uint64_t> slot_words,
                               std::uint64_t r, std::uint32_t frame_size) {
  RFID_EXPECT(frame_size >= 1, "frame size must be positive");
  bits::Bitstring frame(frame_size);
  const std::span<std::uint64_t> words = frame.words();
#if defined(RFIDMON_COLUMNAR_SIMD)
  if (const SlotsKernel kernel = pick_slots_kernel(hasher.kind())) {
    // Hash a cache-resident chunk with the vector kernel, then scatter it;
    // the scatter stays scalar (lanes may collide on a frame word).
    constexpr std::size_t kChunk = 1024;
    std::uint32_t slots[kChunk];
    std::size_t done = 0;
    const std::size_t n = slot_words.size();
    while (done < n) {
      const std::size_t count = (n - done < kChunk) ? n - done : kChunk;
      kernel(slot_words.data() + done, count, r, frame_size, slots);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t slot = slots[i];
        words[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      }
      done += count;
    }
    return frame;
  }
#endif
  with_mixer(hasher, [&](auto mix) {
    for (const std::uint64_t word : slot_words) {
      const std::uint32_t slot = reduce(mix(word ^ r), frame_size);
      words[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
  });
  return frame;
}

}  // namespace rfid::tag

// Little-endian byte codec for every binary payload: the reader link's
// messages (wire/messages.h), the service protocol (service/messages.h) and
// the records of the three storage journals (storage/record_log.h).
//
// Encoder and Decoder move primitives: fixed-width integers little-endian
// whatever the host's byte order, doubles as their IEEE-754 bit pattern,
// strings behind a u32 length. Framing and checksums are the callers'.
//
// put() and get() are one overload set that walks a payload's layout, which
// each type states once:
//
//   * A payload type lists its fields in wire order, as references:
//       static auto fields(auto& m) { return std::tie(m.round, m.challenge); }
//     The one list serves both directions: put() walks a const instance,
//     get() fills a default-constructed one, strictly in list order.
//   * Leaves: bool and u8 (one byte), u32, u64, f64 and std::string.
//   * std::vector<E>: a u32 count, then each element. get() checks the count
//     against min_size<E>(), the fewest bytes an E encodes to (computed from
//     its field list), before it reserves anything: a forged count fails as
//     malformed input, not as an allocation of gigabytes.
//   * std::variant<A...>: a u8 kind, the alternative's index + 1, then the
//     alternative's fields. get() rejects kind 0 and kinds past the last.
//   * A field type with a layout of its own (a bitstring, an enum checked on
//     decode) declares
//       void put(util::Encoder&, const T&);  void get(util::Decoder&, T&);
//     in its own namespace, beside the type, where argument-dependent lookup
//     finds them.
//
// Every getter throws std::invalid_argument on truncated or malformed input,
// and decode() also rejects bytes left over after the payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/expect.h"

namespace rfid::util {

/// Append-only byte sink with primitive writers.
class Encoder {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(static_cast<std::byte>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  /// Length-prefixed (u32) byte string.
  void put_bytes(std::span<const std::byte> data);
  void put_string(std::string_view s);
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::byte> take() && { return std::move(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

/// Forward-only reader over a byte span. All getters throw
/// std::invalid_argument on truncation — never read past the end.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] bool get_bool() { return get_u8() != 0; }
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::vector<std::byte> get_bytes();
  [[nodiscard]] std::string get_string();

  /// Reads a count prefix (u32, or u64 with Prefix = std::uint64_t) of
  /// elements that each encode to at least `min_element_bytes`, and throws
  /// std::invalid_argument when that many cannot fit in what remains. Read
  /// every count through here before reserving for it.
  template <class Prefix = std::uint32_t>
  [[nodiscard]] std::size_t get_count(std::size_t min_element_bytes) {
    static_assert(std::is_same_v<Prefix, std::uint32_t> ||
                  std::is_same_v<Prefix, std::uint64_t>);
    const std::uint64_t count = sizeof(Prefix) == 4 ? get_u32() : get_u64();
    if (count > remaining() / min_element_bytes) {
      throw std::invalid_argument("count exceeds payload");
    }
    return static_cast<std::size_t>(count);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  /// Asserts the whole payload was consumed (catches trailing garbage).
  void expect_exhausted() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::byte> data_;
  std::size_t offset_ = 0;
};

/// A type that lists its fields for put() and get().
template <class T>
concept HasFields = requires(T& m) { T::fields(m); };

namespace detail {
template <class T>
inline constexpr bool kIsVector = false;
template <class E, class A>
inline constexpr bool kIsVector<std::vector<E, A>> = true;
}  // namespace detail

/// The fewest bytes any T encodes to: what one element of a counted list
/// must at least occupy.
template <class T>
consteval std::size_t min_size() {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);  // a fixed-width leaf
  } else if constexpr (std::is_same_v<T, std::string> || detail::kIsVector<T>) {
    return 4;  // an empty string or list is its u32 count alone
  } else {
    static_assert(HasFields<T>, "a list element needs a field list");
    using Fields = decltype(T::fields(std::declval<T&>()));
    return []<std::size_t... I>(std::index_sequence<I...>) {
      return (std::size_t{0} + ... +
              min_size<std::remove_cvref_t<std::tuple_element_t<I, Fields>>>());
    }(std::make_index_sequence<std::tuple_size_v<Fields>>{});
  }
}

inline void put(Encoder& out, bool v) { out.put_bool(v); }
inline void put(Encoder& out, std::uint8_t v) { out.put_u8(v); }
inline void put(Encoder& out, std::uint32_t v) { out.put_u32(v); }
inline void put(Encoder& out, std::uint64_t v) { out.put_u64(v); }
inline void put(Encoder& out, double v) { out.put_f64(v); }
inline void put(Encoder& out, const std::string& v) { out.put_string(v); }
inline void get(Decoder& in, bool& v) { v = in.get_bool(); }
inline void get(Decoder& in, std::uint8_t& v) { v = in.get_u8(); }
inline void get(Decoder& in, std::uint32_t& v) { v = in.get_u32(); }
inline void get(Decoder& in, std::uint64_t& v) { v = in.get_u64(); }
inline void get(Decoder& in, double& v) { v = in.get_f64(); }
inline void get(Decoder& in, std::string& v) { v = in.get_string(); }

template <class E>
void put(Encoder& out, const std::vector<E>& list) {
  RFID_EXPECT(list.size() <= 0xffffffffu, "list too long to encode");
  out.put_u32(static_cast<std::uint32_t>(list.size()));
  for (const E& element : list) put(out, element);
}

template <class E>
void get(Decoder& in, std::vector<E>& list) {
  const std::size_t count = in.get_count(min_size<E>());
  list.clear();
  list.reserve(count);
  for (std::size_t i = 0; i < count; ++i) get(in, list.emplace_back());
}

template <class... A>
void put(Encoder& out, const std::variant<A...>& record) {
  out.put_u8(static_cast<std::uint8_t>(record.index() + 1));
  std::visit([&out](const auto& alternative) { put(out, alternative); }, record);
}

template <class... A>
void get(Decoder& in, std::variant<A...>& record) {
  const std::size_t kind = in.get_u8();
  RFID_EXPECT(kind >= 1 && kind <= sizeof...(A), "unknown record kind");
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((kind == I + 1 && (get(in, record.template emplace<I>()), true)) || ...);
  }(std::index_sequence_for<A...>{});
}

template <HasFields T>
void put(Encoder& out, const T& payload) {
  std::apply([&out](const auto&... field) { (put(out, field), ...); },
             T::fields(payload));
}

template <HasFields T>
void get(Decoder& in, T& payload) {
  // A fold over the comma operator: fields are read in list order.
  std::apply([&in](auto&... field) { (get(in, field), ...); },
             T::fields(payload));
}

/// The payload bytes of `value`.
template <class T>
[[nodiscard]] std::vector<std::byte> encode(const T& value) {
  Encoder out;
  put(out, value);
  return std::move(out).take();
}

/// Decodes a whole payload; trailing bytes are rejected.
template <class T>
[[nodiscard]] T decode(std::span<const std::byte> payload) {
  Decoder in(payload);
  T value;
  get(in, value);
  in.expect_exhausted();
  return value;
}

}  // namespace rfid::util

// Frame for server <-> reader messages.
//
// The paper assumes a channel between the monitoring server and the RFID
// reader (challenges flow one way, bitstrings the other). Messages encode
// their fields with the shared little-endian codec (util/codec.h); this file
// pins the frame around them: a length prefix and a trailing FNV-1a-32
// checksum over every payload. Deliberately boring — the point is that two
// independent implementations could talk to each other, and that corruption
// is detected before parsing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/codec.h"

namespace rfid::wire {

/// Wraps a payload in a frame: [u32 length][payload][u32 fnv1a32(payload)].
[[nodiscard]] std::vector<std::byte> frame_payload(std::span<const std::byte> payload);

/// Unwraps and verifies a frame; throws std::invalid_argument on length or
/// checksum mismatch.
[[nodiscard]] std::vector<std::byte> unframe_payload(std::span<const std::byte> frame);

}  // namespace rfid::wire

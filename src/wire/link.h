// A point-to-point message link over the discrete-event queue.
//
// Models the server <-> reader backhaul: fixed propagation latency plus
// optional uniform jitter and i.i.d. frame drop. Delivery order can therefore
// differ from send order when jitter is nonzero — receivers must not assume
// FIFO (the session layer matches on round numbers instead). Frames are
// delivered as raw bytes; integrity is the frame checksum's job (frame.h).
//
// An optional fault::FaultInjector layers scripted impairments on top:
// correlated burst loss (Gilbert–Elliott), payload corruption (caught by the
// framing checksum at the receiver), duplication, and reordering delays.
// Without an injector the link behaves — and draws randomness — exactly as
// before, so faultless runs stay bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "util/random.h"

namespace rfid::wire {

struct LinkConfig {
  double latency_us = 1000.0;
  double jitter_us = 0.0;      // uniform extra delay in [0, jitter_us)
  double drop_prob = 0.0;      // i.i.d. per frame
};

class Link {
 public:
  using Handler = std::function<void(std::vector<std::byte>)>;

  Link(sim::EventQueue& queue, LinkConfig config, util::Rng& rng,
       fault::FaultInjector* injector = nullptr)
      : queue_(queue), config_(config), rng_(rng), injector_(injector) {}

  /// Hands the frame to the link; it arrives at the receiver handler after
  /// the configured delay, or never (drop). Returns false if dropped — the
  /// sender does NOT learn this in-protocol; the return value exists for
  /// tests and statistics. An injected duplicate is delivered as a second,
  /// independently-delayed copy and counted in frames_sent().
  bool send(std::vector<std::byte> frame, const Handler& deliver);

  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept { return dropped_; }

  /// Starts recording frames/bytes/drops under the given direction label
  /// ("uplink" / "downlink"). Resolves the series once here; send() then
  /// only touches cached atomics. The registry must outlive this link.
  void attach_metrics(obs::MetricsRegistry& registry, std::string_view direction);

 private:
  [[nodiscard]] double delivery_delay() noexcept;

  sim::EventQueue& queue_;
  LinkConfig config_;
  util::Rng& rng_;
  fault::FaultInjector* injector_;  // not owned; may be null
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  obs::Counter* frames_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
};

}  // namespace rfid::wire

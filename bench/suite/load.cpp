#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace rfid::bench {

// ------------------------------------------------------------- report ----

void Report::fail(std::string what) {
  correct = false;
  if (problems.size() < 8) problems.push_back(std::move(what));
}

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

// ------------------------------------------------------------ helpers ----

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double current_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

/// Keeps the reference kernel's result observable.
volatile double g_reference_sink = 0.0;

}  // namespace

double reference_us() {
  constexpr std::size_t kWords = 1024;  // 8 KiB: stays in the L1 cache
  constexpr int kSteps = 20000;
  static double table[kWords] = {};
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double sum = 0.0;
  const double t0 = now_us();
  for (int k = 0; k < kSteps; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double& cell = table[x % kWords];
    cell += std::log(1.0 + static_cast<double>(x & 0xffff));
    sum += cell;
  }
  const double took = now_us() - t0;
  g_reference_sink = sum;
  return took;
}

// -------------------------------------------------------------- load ----

namespace {

constexpr double kSetupTimeoutUs = 120e6;

}  // namespace

LoadGenerator::LoadGenerator(std::uint16_t port, std::size_t connections,
               std::uint32_t max_payload) {
  conns_.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    service::Socket sock =
        service::connect_loopback(port, std::chrono::milliseconds(5000));
    sock.set_nonblocking(true);
    conns_.emplace_back(std::move(sock), max_payload);
  }
  feeds.resize(connections);
}

std::uint64_t LoadGenerator::outstanding() const {
  std::uint64_t total = 0;
  for (const Conn& conn : conns_) total += conn.outstanding;
  return total;
}

void LoadGenerator::queue(std::size_t c, service::FrameType type,
                   const std::vector<std::byte>& payload) {
  Conn& conn = conns_[c];
  const std::vector<std::byte> frame = service::encode_frame(type, payload);
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  flush(conn);
}

void LoadGenerator::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const long n = conn.sock.write_some(std::span<const std::byte>(
        conn.out.data() + conn.out_off, conn.out.size() - conn.out_off));
    if (n < 0) break;  // would block
    conn.out_off += static_cast<std::size_t>(n);
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

void LoadGenerator::receive(Conn& conn, std::vector<service::Frame>& frames) {
  std::byte buf[64 * 1024];
  for (;;) {
    const long n = conn.sock.read_some(buf);
    if (n < 0) return;  // drained
    if (n == 0) throw std::runtime_error("service closed a connection");
    const service::ErrorCode err = conn.reader.feed(
        std::span<const std::byte>(buf, static_cast<std::size_t>(n)), frames);
    if (err != service::ErrorCode::kNone) {
      throw std::runtime_error("framing error from service: " +
                               std::string(service::to_string(err)));
    }
  }
}

service::Frame LoadGenerator::await(std::size_t c, service::FrameType wanted) {
  Conn& conn = conns_[c];
  const double deadline = now_us() + kSetupTimeoutUs;
  for (;;) {
    if (!conn.inbox.empty()) {
      service::Frame frame = std::move(conn.inbox.front());
      conn.inbox.pop_front();
      const auto type = static_cast<service::FrameType>(frame.type);
      if (type == wanted) return frame;
      if (type == service::FrameType::kError) {
        const service::ErrorMsg err = service::decode_error(frame.payload);
        throw std::runtime_error("service error during set-up: " +
                                 std::string(service::to_string(err.code)) +
                                 ": " + err.message);
      }
      throw std::runtime_error(
          "unexpected frame during set-up: " +
          std::string(service::to_string(type)));
    }
    if (now_us() > deadline) {
      throw std::runtime_error("set-up reply timed out");
    }
    pollfd pfd{conn.sock.fd(), POLLIN, 0};
    if (!conn.out.empty()) pfd.events |= POLLOUT;
    (void)::poll(&pfd, 1, 100);
    flush(conn);
    std::vector<service::Frame> frames;
    receive(conn, frames);
    for (service::Frame& frame : frames) conn.inbox.push_back(std::move(frame));
  }
}

void LoadGenerator::hello(std::size_t c, const std::string& tenant) {
  queue(c, service::FrameType::kHello,
        service::encode(
            service::HelloRequest{service::kProtocolVersion, tenant}));
  (void)await(c, service::FrameType::kHelloOk);
}

void LoadGenerator::enroll(std::size_t c, const service::EnrollRequest& request) {
  queue(c, service::FrameType::kEnroll, service::encode(request));
  (void)await(c, service::FrameType::kEnrollOk);
}

void LoadGenerator::subscribe(std::size_t c) {
  queue(c, service::FrameType::kSubscribe, {});
  const service::SubscribeOk ok = service::decode_subscribe_ok(
      await(c, service::FrameType::kSubscribeOk).payload);
  for (std::uint64_t i = 0; i < ok.backlog; ++i) {
    service::TenantAlert alert = service::decode_tenant_alert(
        await(c, service::FrameType::kTenantAlert).payload);
    conns_[c].next_sequence = alert.sequence + 1;
    feeds[c].push_back(std::move(alert));
  }
}

void LoadGenerator::start(Requests& requests, std::size_t slot,
                   service::FrameType type,
                   const std::vector<std::byte>& payload) {
  Request& r = requests[slot];
  Conn& conn = conns_[r.conn];
  r.sent_us = now_us();
  conn.awaiting_admission.push_back(slot);
  ++conn.outstanding;
  queue(r.conn, type, payload);
}

void LoadGenerator::ping(std::size_t c) {
  const std::uint64_t nonce = next_nonce_++;
  conns_[c].pings.emplace_back(nonce, now_us());
  queue(c, service::FrameType::kPing, service::encode(service::PingMsg{nonce}));
}

void LoadGenerator::sync(Requests& requests) {
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    conns_[c].sync_nonce = next_nonce_++;
    queue(c, service::FrameType::kPing,
          service::encode(service::PingMsg{conns_[c].sync_nonce}));
  }
  const double deadline = now_us() + kSetupTimeoutUs;
  const auto pending = [&] {
    return std::any_of(conns_.begin(), conns_.end(),
                       [](const Conn& conn) { return conn.sync_nonce != 0; });
  };
  while (pending()) {
    if (now_us() > deadline) throw std::runtime_error("sync ping timed out");
    (void)step(requests, now_us() + 50e3);
  }
}

std::vector<std::size_t> LoadGenerator::step(Requests& requests,
                                      double deadline_us) {
  std::vector<pollfd> pfds;
  pfds.reserve(conns_.size());
  for (const Conn& conn : conns_) {
    pollfd pfd{conn.sock.fd(), POLLIN, 0};
    if (!conn.out.empty()) pfd.events |= POLLOUT;
    pfds.push_back(pfd);
  }
  const double wait_us = std::max(0.0, deadline_us - now_us());
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(wait_us / 1e6);
  timeout.tv_nsec = static_cast<long>(
      std::fmod(wait_us, 1e6) * 1e3);
  (void)::ppoll(pfds.data(), static_cast<nfds_t>(pfds.size()), &timeout,
                nullptr);

  std::vector<std::size_t> done;
  std::vector<service::Frame> frames;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    const short revents = pfds[c].revents;
    if ((revents & (POLLERR | POLLNVAL)) != 0) {
      throw std::runtime_error("service connection failed");
    }
    if ((revents & POLLOUT) != 0) flush(conns_[c]);
    if ((revents & (POLLIN | POLLHUP)) != 0) {
      frames.clear();
      receive(conns_[c], frames);
      for (const service::Frame& frame : frames) {
        handle(c, frame, requests, done);
      }
    }
  }
  return done;
}

void LoadGenerator::handle(std::size_t c, const service::Frame& frame,
                    Requests& requests,
                    std::vector<std::size_t>& done) {
  Conn& conn = conns_[c];
  const double now = now_us();
  const auto finish = [&](std::size_t slot) {
    requests[slot].done_us = now;
    --conn.outstanding;
    done.push_back(slot);
  };
  const auto admitted_slot = [&]() -> std::size_t {
    const std::size_t slot = conn.awaiting_admission.front();
    conn.awaiting_admission.pop_front();
    return slot;
  };

  switch (static_cast<service::FrameType>(frame.type)) {
    case service::FrameType::kRunAdmitted: {
      if (conn.awaiting_admission.empty()) break;
      const service::RunAdmitted m =
          service::decode_run_admitted(frame.payload);
      const std::size_t slot = admitted_slot();
      Request& r = requests[slot];
      r.run_id = m.run_id;
      r.admitted_us = now;
      r.deferred =
          m.admission == static_cast<std::uint8_t>(fleet::Admission::kDeferred);
      r.queue_depth = m.queue_depth;
      conn.running.emplace(m.run_id, slot);
      return;
    }
    case service::FrameType::kBackpressure: {
      if (conn.awaiting_admission.empty()) break;
      const std::size_t slot = admitted_slot();
      requests[slot].failed = true;
      finish(slot);
      return;
    }
    case service::FrameType::kError: {
      ++error_frames;
      const service::ErrorMsg err = service::decode_error(frame.payload);
      // A request-level refusal answers the oldest unanswered start; an
      // internal error names no run, so that run simply never finishes
      // and the drain timeout reports it.
      if (err.code != service::ErrorCode::kInternal &&
          !service::is_fatal(err.code) && !conn.awaiting_admission.empty()) {
        const std::size_t slot = admitted_slot();
        requests[slot].failed = true;
        finish(slot);
      }
      return;
    }
    case service::FrameType::kRunVerdict: {
      service::RunVerdictMsg m = service::decode_run_verdict(frame.payload);
      const auto it = conn.running.find(m.run_id);
      if (it == conn.running.end()) break;
      const std::size_t slot = it->second;
      conn.running.erase(it);
      requests[slot].verdict = std::move(m);
      finish(slot);
      return;
    }
    case service::FrameType::kWatchDone: {
      const service::WatchDone m = service::decode_watch_done(frame.payload);
      const auto it = conn.running.find(m.run_id);
      if (it == conn.running.end()) break;
      const std::size_t slot = it->second;
      conn.running.erase(it);
      requests[slot].watch_done = m;
      finish(slot);
      return;
    }
    case service::FrameType::kRunAlert:
      ++run_alert_frames;
      return;
    case service::FrameType::kTenantAlert: {
      service::TenantAlert alert =
          service::decode_tenant_alert(frame.payload);
      if (alert.sequence != conn.next_sequence) ++feed_gaps;
      conn.next_sequence = alert.sequence + 1;
      feeds[c].push_back(std::move(alert));
      return;
    }
    case service::FrameType::kPong: {
      const std::uint64_t nonce = service::decode_ping(frame.payload).nonce;
      if (nonce == conn.sync_nonce) {
        conn.sync_nonce = 0;
        return;
      }
      while (!conn.pings.empty() && conn.pings.front().first != nonce) {
        conn.pings.pop_front();
      }
      if (conn.pings.empty()) break;
      ping_rtt_us.push_back(now - conn.pings.front().second);
      conn.pings.pop_front();
      return;
    }
    case service::FrameType::kShutdown:
      return;
    default:
      break;
  }
  ++unexpected_frames;
}

}  // namespace rfid::bench

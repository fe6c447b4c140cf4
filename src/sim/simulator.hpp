// Deterministic discrete-event simulator.
//
// Replaces the paper's physical testbed (seven machines across the IBM
// intranet).  Virtual time is a double in seconds; events fire in timestamp
// order with FIFO tie-breaking, so a run is a pure function of its inputs
// and the Rng seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

namespace sdns::sim {

using Time = double;  ///< virtual seconds

/// Thrown by step() when the event cap trips: a protocol that keeps the
/// queue busy without ever draining it.
class EventCapExceeded : public std::runtime_error {
 public:
  EventCapExceeded() : std::runtime_error("simulator event cap exceeded") {}
};

class Simulator {
 public:
  Time now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (>= 0).
  void schedule(Time delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` (clamped to now).
  void schedule_at(Time t, std::function<void()> fn);

  /// Run the next event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains (or the safety cap trips).
  void run();

  /// Run events with timestamp <= t; afterwards now() == t if any events ran
  /// past or up to it. Returns false if the queue drained first.
  bool run_until(Time t);

  std::uint64_t events_processed() const { return processed_; }

  /// Abort knob for runaway protocols (default 50M events).
  void set_event_cap(std::uint64_t cap) { cap_ = cap; }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cap_ = 50'000'000;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace sdns::sim

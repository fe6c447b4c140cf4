#include "sim/simulator.hpp"

namespace sdns::sim {

void Simulator::schedule_at(Time t, std::function<void()> fn) {
  if (t < now_) t = now_;
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  if (++processed_ > cap_) throw EventCapExceeded();
  // priority_queue::top returns const&; move out via const_cast is UB — copy
  // the function instead (events are small closures).
  Event ev = queue_.top();
  queue_.pop();
  now_ = ev.at;
  ev.fn();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

bool Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.top().at <= t) {
    if (!step()) return false;
  }
  if (now_ < t) now_ = t;
  return !queue_.empty();
}

}  // namespace sdns::sim

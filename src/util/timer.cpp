#include "util/timer.hpp"

#include <stdexcept>
#include <string>

namespace tsbo::util {

void PhaseTimers::start(Phase p) {
  Slot& s = slots_[static_cast<std::size_t>(p)];
  if (s.running) {
    throw std::logic_error("PhaseTimers: phase already running: " +
                           std::string(name(p)));
  }
  if (p != Phase::kTotal) {
    if (leaf_ != Phase::kTotal) {
      throw std::logic_error("PhaseTimers: " + std::string(name(p)) +
                             " started inside " + std::string(name(leaf_)));
    }
    leaf_ = p;
  }
  s.running = true;
  s.started = std::chrono::steady_clock::now();
}

void PhaseTimers::stop(Phase p) {
  Slot& s = slots_[static_cast<std::size_t>(p)];
  if (!s.running) {
    throw std::logic_error("PhaseTimers: phase not running: " +
                           std::string(name(p)));
  }
  s.seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - s.started)
          .count();
  s.count += 1;
  s.running = false;
  if (p != Phase::kTotal) leaf_ = Phase::kTotal;
}

double PhaseTimers::seconds(PaperPhase p) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (kPhases[i].paper == p) sum += slots_[i].seconds;
  }
  return sum;
}

OrthoBreakdown PhaseTimers::ortho() const {
  return {seconds(PaperPhase::kOrthoDot), seconds(PaperPhase::kOrthoReduce),
          seconds(PaperPhase::kOrthoUpdate), seconds(PaperPhase::kOrthoFactor),
          seconds(PaperPhase::kOrthoSmall)};
}

void spin_wait(double seconds) {
  if (seconds <= 0.0) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    // spin
  }
}

}  // namespace tsbo::util

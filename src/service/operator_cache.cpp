#include "service/operator_cache.hpp"

#include "api/solver.hpp"
#include "util/timer.hpp"

#include <utility>

namespace tsbo::service {

std::string operator_cache_key(const api::SolverOptions& opts) {
  // Canonical "key=value" echo of exactly the operator-determining
  // keys, in fixed order, so the key doubles as human-readable
  // provenance in the /5 report's service object.
  std::string out;
  for (const char* key : {"matrix", "matrix_file", "nx", "ny", "nz", "n",
                          "equilibrate", "ranks"}) {
    if (!out.empty()) out.push_back(' ');
    out += std::string(key) + "=" + opts.get(key);
  }
  return out;
}

std::uint64_t rhs_fingerprint(std::span<const double> b) {
  // FNV-1a over the raw value bits (same fold as Csr::checksum), so
  // -0.0 vs 0.0 and single-bit perturbations all produce distinct
  // fingerprints.
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto* bytes = reinterpret_cast<const unsigned char*>(b.data());
  const std::size_t nbytes = b.size() * sizeof(double);
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
  return h;
}

std::uint64_t rhs_fingerprint(const std::vector<double>& b) {
  return rhs_fingerprint(std::span<const double>(b.data(), b.size()));
}

std::size_t CachedOperator::bytes() const {
  std::size_t b = matrix.storage_bytes() + prepared.bytes();
  b += ones_b.capacity() * sizeof(double);
  for (const SolutionSeed& seed : seeds) {
    b += seed.x.capacity() * sizeof(double);
  }
  return b;
}

std::shared_ptr<CachedOperator> build_operator(const api::SolverOptions& opts) {
  auto op = std::make_shared<CachedOperator>();
  util::WallTimer timer;
  op->key = operator_cache_key(opts);
  // Same construction path as a standalone api::Solver: the registry
  // build (+ equilibration), the prepared operator and the all-ones
  // RHS — so solves against the cached entry are bitwise-identical to
  // cold solves.
  op->matrix = api::make_matrix(opts, &op->label);
  op->prepared = api::PreparedOperator(op->matrix, opts.ranks);
  op->ones_b = api::ones_rhs(op->matrix);
  op->build_seconds = timer.seconds();
  op->matrix_checksum = op->matrix.checksum();
  return op;
}

OperatorCache::OperatorCache(std::size_t budget_bytes)
    : budget_(budget_bytes) {}

std::shared_ptr<CachedOperator> OperatorCache::acquire(
    const api::SolverOptions& opts, bool* hit) {
  const std::string key = operator_cache_key(opts);
  {
    std::lock_guard lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->op->key == key) {
        lru_.splice(lru_.begin(), lru_, it);  // touch
        ++stats_.hits;
        if (hit != nullptr) *hit = true;
        return lru_.front().op;
      }
    }
  }
  // Miss: build outside the lock (construction is the expensive part
  // the cache exists to amortize; holding mu_ here would serialize
  // unrelated operators behind it).
  std::shared_ptr<CachedOperator> built = build_operator(opts);
  std::lock_guard lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->op->key == key) {  // lost the insert race: share the winner
      lru_.splice(lru_.begin(), lru_, it);
      ++stats_.hits;
      if (hit != nullptr) *hit = true;
      return lru_.front().op;
    }
  }
  ++stats_.misses;
  if (hit != nullptr) *hit = false;
  const std::size_t b = built->bytes();
  lru_.push_front(Slot{built, b});
  total_bytes_ += b;
  enforce_budget_locked();
  return built;
}

void OperatorCache::refresh_bytes(const std::shared_ptr<CachedOperator>& op) {
  std::lock_guard lock(mu_);
  for (Slot& slot : lru_) {
    if (slot.op == op) {
      const std::size_t b = op->bytes();
      total_bytes_ += b - slot.bytes;
      slot.bytes = b;
      enforce_budget_locked();
      return;
    }
  }
}

bool OperatorCache::invalidate(const std::string& key) {
  std::lock_guard lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->op->key == key) {
      total_bytes_ -= it->bytes;
      lru_.erase(it);
      ++stats_.evictions;
      return true;
    }
  }
  return false;
}

void OperatorCache::enforce_budget_locked() {
  // Evict least-recently-used entries until under budget; the MRU
  // entry always survives so the job that just acquired it can run.
  while (total_bytes_ > budget_ && lru_.size() > 1) {
    total_bytes_ -= lru_.back().bytes;
    lru_.pop_back();
    ++stats_.evictions;
  }
}

OperatorCache::Stats OperatorCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t OperatorCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

std::size_t OperatorCache::total_bytes() const {
  std::lock_guard lock(mu_);
  return total_bytes_;
}

std::size_t OperatorCache::budget_bytes() const {
  std::lock_guard lock(mu_);
  return budget_;
}

bool OperatorCache::contains(const std::string& key) const {
  std::lock_guard lock(mu_);
  for (const Slot& slot : lru_) {
    if (slot.op->key == key) return true;
  }
  return false;
}

}  // namespace tsbo::service

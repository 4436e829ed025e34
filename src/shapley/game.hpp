#pragma once
// Cooperative game abstraction (S6, Definition 3). Players are indexed
// 0..n-1; coalitions are bitmasks (n <= 63). The characteristic function is
// expensive in PDSL (a validation-set evaluation per coalition, Eq. 16), so
// the game memoizes values — both the exact enumeration and Monte Carlo
// estimation revisit coalitions heavily.
//
// Estimators announce the coalitions they are about to need via prefetch();
// the game scores every new one in ONE call to the BatchCharacteristicFn, so
// a scorer that shares work across coalitions (sim::CoalitionBatchEvaluator's
// per-member first-layer pre-activations) sees them all at once. value() on
// a mask that was never prefetched falls back to a one-mask batch, so
// estimators that cannot announce their coalitions up front (truncated MC)
// still work.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace pdsl::shapley {

/// v(S): coalition passed as a sorted list of member indices. By Definition 3
/// implementations must return 0 for the empty coalition; the game
/// short-circuits that case and never calls the function with an empty set.
using CharacteristicFn = std::function<double(const std::vector<std::size_t>& coalition)>;

/// Batched v(S): masks in, one value per mask out (same order). Masks are
/// non-empty, in range and pairwise distinct. Each value must depend on its
/// mask alone, so the order masks are scored in never changes a result.
using BatchCharacteristicFn =
    std::function<std::vector<double>(const std::vector<std::uint64_t>& masks)>;

/// Adapt a one-coalition characteristic to the batch interface (a loop over
/// the masks).
[[nodiscard]] BatchCharacteristicFn batch_of(CharacteristicFn v);

/// Memoizing coalition game over bitmask coalitions.
class Game {
 public:
  Game(std::size_t num_players, BatchCharacteristicFn v);
  virtual ~Game() = default;
  Game(const Game&) = delete;
  Game& operator=(const Game&) = delete;

  [[nodiscard]] std::size_t num_players() const { return n_; }

  /// Value of the coalition encoded in `mask` (bit j = player j present).
  double value(std::uint64_t mask);

  /// Number of distinct non-empty coalitions evaluated so far.
  [[nodiscard]] std::size_t evaluations() const { return memo_.size(); }

  /// Score every mask in `masks` not yet known, in one batch call, in
  /// announcement order. Duplicates, empty and already-known masks are
  /// allowed; out-of-range masks are not. A hint only: virtual so a game can
  /// ignore it and score on demand, which must leave phi unchanged.
  virtual void prefetch(const std::vector<std::uint64_t>& masks);

  /// Members of a mask, ascending.
  [[nodiscard]] static std::vector<std::size_t> members(std::uint64_t mask);

  [[nodiscard]] std::uint64_t full_mask() const;

 private:
  void check_range(std::uint64_t mask) const;
  /// Score `masks` (non-empty, distinct, unknown) and memoize the results.
  void evaluate(const std::vector<std::uint64_t>& masks);

  std::size_t n_;
  BatchCharacteristicFn v_;
  std::unordered_map<std::uint64_t, double> memo_;
};

}  // namespace pdsl::shapley

#include "malsched/core/optimal.hpp"

#include <algorithm>
#include <limits>

#include "malsched/core/bnb.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/support/contracts.hpp"

namespace malsched::core {

OptimalResult optimal_by_enumeration(const Instance& instance,
                                     const OptimalOptions& options) {
  MALSCHED_EXPECTS_MSG(instance.size() <= options.max_tasks,
                       "optimal is factorial (enumeration) / worst-case "
                       "exponential (branch-and-bound) in n; raise "
                       "OptimalOptions::max_tasks deliberately");
  if (instance.size() > options.enumeration_crossover) {
    BnbOptions bnb_options;
    bnb_options.max_tasks = options.max_tasks;
    bnb_options.want_schedule = options.want_schedule;
    bnb_options.cancel = options.cancel;
    auto bnb = branch_and_bound(instance, bnb_options);
    OptimalResult result;
    result.objective = bnb.objective;
    result.order = std::move(bnb.order);
    result.schedule = std::move(bnb.schedule);
    result.orders_tried = bnb.stats.leaves;
    result.cancelled = bnb.cancelled;
    return result;
  }
  OptimalResult result;
  result.objective = std::numeric_limits<double>::infinity();

  // Poll the cancellation token every 64 permutations: each iteration is an
  // order-LP solve (microseconds), so the cadence bounds cancellation
  // latency at well under a millisecond while keeping clock reads (for
  // deadline tokens) off the per-iteration path.
  const bool poll_cancel = options.cancel.can_cancel();
  auto order = identity_order(instance.size());
  do {
    if (poll_cancel && (result.orders_tried & 0x3F) == 0 &&
        options.cancel.cancelled()) {
      result.cancelled = true;
      break;
    }
    const double objective = order_lp_objective(instance, order);
    ++result.orders_tried;
    if (objective < result.objective) {
      result.objective = objective;
      result.order = order;
    }
  } while (std::next_permutation(order.begin(), order.end()));

  if (options.want_schedule && !result.order.empty()) {
    auto solved = solve_order_lp(instance, result.order);
    if (solved.optimal()) {
      result.schedule = std::move(solved.schedule);
    }
  }
  return result;
}

}  // namespace malsched::core

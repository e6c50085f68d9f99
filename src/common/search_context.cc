#include "common/search_context.h"

#include <thread>

#include "common/status.h"

namespace ppanns {

const char* EarlyExitName(EarlyExit reason) {
  switch (reason) {
    case EarlyExit::kNone:
      return "none";
    case EarlyExit::kCancelled:
      return "cancelled";
    case EarlyExit::kDeadlineExpired:
      return "deadline";
    case EarlyExit::kBudgetExhausted:
      return "budget";
  }
  return "unknown";
}

SearchContext SearchContext::WithDeadlineMs(double ms) {
  SearchContext ctx;
  if (ms > 0.0) {
    ctx.set_deadline(
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(ms)));
  }
  return ctx;
}

void SearchContext::AddCancelFlag(const std::atomic<bool>* flag) {
  for (const std::atomic<bool>*& slot : flags_) {
    if (slot == nullptr) {
      slot = flag;
      return;
    }
  }
  // Two caller flags plus the serving tier's additions fit in four slots;
  // overflowing them is a programmer error (collapse flags before
  // registering), not a load-dependent condition.
  PPANNS_CHECK(false);
}

void InterruptibleDelay(int delay_ms, SearchContext* ctx) {
  for (int slice = 0; slice < delay_ms; ++slice) {
    if (ctx != nullptr && ctx->ShouldStop(ctx->stats.nodes_visited)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace ppanns

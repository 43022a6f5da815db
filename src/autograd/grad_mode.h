#ifndef ARMNET_AUTOGRAD_GRAD_MODE_H_
#define ARMNET_AUTOGRAD_GRAD_MODE_H_

#include <cstdint>

// Execution-mode control for the autograd engine (DESIGN.md §9).
//
// Grad mode is a per-thread flag consulted by MakeFromOp. While it is off,
// no tape node, backward closure, or input-retaining shared_ptr is created
// for any op — even when the inputs require grad — so an inference pass is
// graph-free: the only live tensors are the op outputs themselves, and they
// die as soon as the caller drops them.
//
// The flag is thread-local: an evaluator running under NoGradGuard on one
// thread never disables tape recording for a trainer on another.

namespace armnet {

class GradMode {
 public:
  // Whether ops on the current thread record tape nodes. Defaults to true.
  static bool IsEnabled();
  static void SetEnabled(bool enabled);
};

// RAII: disables grad mode on the current thread for the guard's lifetime
// and restores the previous state on exit. Guards nest arbitrarily.
class NoGradGuard {
 public:
  NoGradGuard() : prev_(GradMode::IsEnabled()) { GradMode::SetEnabled(false); }
  ~NoGradGuard() { GradMode::SetEnabled(prev_); }

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

// RAII: re-enables grad mode inside an outer NoGradGuard (e.g. a gradient-
// based attribution running within an otherwise tape-free serving path).
class EnableGradGuard {
 public:
  EnableGradGuard() : prev_(GradMode::IsEnabled()) {
    GradMode::SetEnabled(true);
  }
  ~EnableGradGuard() { GradMode::SetEnabled(prev_); }

  EnableGradGuard(const EnableGradGuard&) = delete;
  EnableGradGuard& operator=(const EnableGradGuard&) = delete;

 private:
  bool prev_;
};

namespace autograd {

// Process-wide tape observability. Counters are cumulative across threads;
// Reset + run + Get brackets make invariants like "zero nodes recorded
// during an evaluator pass" checkable in tests and printable by benches.
struct TapeStats {
  // Tape nodes constructed by MakeFromOp (one per recorded op).
  int64_t nodes_recorded = 0;
  // Ops whose inputs required grad but whose node was skipped because grad
  // mode was off. A pure-inference pass shows only elisions.
  int64_t nodes_elided = 0;
};

TapeStats GetTapeStats();
void ResetTapeStats();

namespace internal {
// Counter bumps for the autograd engine (MakeFromOp); not user API.
void BumpNodesRecorded();
void BumpNodesElided();
}  // namespace internal

}  // namespace autograd

}  // namespace armnet

#endif  // ARMNET_AUTOGRAD_GRAD_MODE_H_

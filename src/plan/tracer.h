#ifndef ARMNET_PLAN_TRACER_H_
#define ARMNET_PLAN_TRACER_H_

#include "core/tabular.h"
#include "data/dataset.h"
#include "plan/program.h"
#include "util/status.h"

namespace armnet::plan {

// Records one eval-mode forward of `model` on `probe` into a Program whose
// shapes are fixed to the probe's batch size.
//
// How it works: a thread-local TraceSink (autograd/trace_hook.h) observes
// every op crossing the tape-free MakeFromOp boundary. Tensors are
// identified by (data pointer, shape): an op output registers its identity,
// a later op consuming it resolves back to that slot. Inputs never seen as
// an output are captured as kConstant slots referencing the model's storage
// in place; the per-request inputs — the id vector (matched by pointer
// against `probe.ids`) and the value tensors (announced by core/tabular.h
// through NotifyBatchValues) — become runtime bindings instead. Reshape
// outputs become alias slots; Dropout never reaches the tape in eval mode.
//
// Preconditions (returned as errors, never aborts):
//   * `model` is in eval mode — a training-mode dropout mask would be
//     captured as a constant and silently baked into every execution;
//   * every traced op is covered by the VM's opcode set — a model using an
//     uncovered op is reported uncompilable and served interpreted.
StatusOr<Program> Trace(models::TabularModel& model, const data::Batch& probe);

}  // namespace armnet::plan

#endif  // ARMNET_PLAN_TRACER_H_

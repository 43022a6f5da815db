#include "plan/tracer.h"

#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "autograd/trace_hook.h"
#include "util/profiler.h"

namespace armnet::plan {

namespace {

using ag::trace::OpAttrs;

// Builds the Program from the op stream of one traced forward.
class TraceBuilder : public ag::trace::TraceSink {
 public:
  explicit TraceBuilder(const data::Batch& probe) : probe_(probe) {
    prog_.batch_size = probe.batch_size;
    prog_.num_fields = probe.num_fields;
  }

  void OnBatchValues(const Tensor& values) override {
    if (failed_) return;
    if (values.numel() != probe_.batch_size * probe_.num_fields) {
      Fail("batch-values tensor does not cover batch_size * num_fields");
      return;
    }
    SlotDef def;
    def.kind = SlotDef::Kind::kBatchValues;
    def.shape = values.shape();
    const int slot = AddSlot(std::move(def));
    Register(values, slot);
    keep_alive_.push_back(values);
  }

  void OnOp(const char* op_name, const Tensor& out,
            const std::vector<Variable>& inputs,
            const OpAttrs& attrs) override {
    if (failed_) return;

    // Reshape is pure metadata: the output shares the input's buffer, so it
    // compiles to an alias slot rather than an instruction.
    if (Same(op_name, "Reshape")) {
      SlotDef def;
      def.kind = SlotDef::Kind::kAlias;
      def.shape = out.shape();
      def.alias_of = Resolve(inputs[0].value());
      const int slot = AddSlot(std::move(def));
      Register(out, slot);
      keep_alive_.push_back(out);
      return;
    }

    Instr instr;
    if (!Lower(op_name, inputs, attrs, &instr)) return;  // Fail() already set

    SlotDef def;
    def.kind = SlotDef::Kind::kIntermediate;
    def.shape = out.shape();
    instr.out = AddSlot(std::move(def));
    Register(out, instr.out);
    keep_alive_.push_back(out);
    prog_.instrs.push_back(std::move(instr));
  }

  // Finishes the trace: resolves the model output to a slot.
  Status Finish(const Tensor& logits) {
    if (failed_) return Status::Error(error_);
    const int slot = Lookup(logits);
    if (slot < 0 ||
        prog_.slots[prog_.RootSlot(slot)].kind == SlotDef::Kind::kConstant) {
      return Status::Error(
          "plan tracer: model output was not produced by a traced op");
    }
    prog_.output = slot;
    return Status::Ok();
  }

  Program&& TakeProgram() { return std::move(prog_); }

 private:
  static bool Same(const char* a, const char* b) {
    return std::strcmp(a, b) == 0;
  }

  void Fail(std::string why) {
    if (!failed_) {
      failed_ = true;
      error_ = "plan tracer: " + std::move(why);
    }
  }

  int AddSlot(SlotDef def) {
    prog_.slots.push_back(std::move(def));
    return static_cast<int>(prog_.slots.size()) - 1;
  }

  // Maps (data pointer, shape) -> slot. A re-registration of the same
  // identity (identity reshape) supersedes the old binding.
  void Register(const Tensor& t, int slot) {
    auto& entries = by_ptr_[t.data()];
    for (auto& [shape, id] : entries) {
      if (shape == t.shape()) {
        id = slot;
        return;
      }
    }
    entries.emplace_back(t.shape(), slot);
  }

  int Lookup(const Tensor& t) const {
    auto it = by_ptr_.find(t.data());
    if (it == by_ptr_.end()) return -1;
    for (const auto& [shape, id] : it->second) {
      if (shape == t.shape()) return id;
    }
    return -1;
  }

  // Resolves an op input to a slot, capturing never-before-seen tensors as
  // constants. Constant capture shares storage with the source (a model
  // parameter or an ag::Constant payload) — no copy, but the plan must be
  // dropped when the weights change.
  int Resolve(const Tensor& t) {
    const int found = Lookup(t);
    if (found >= 0) return found;
    SlotDef def;
    def.kind = SlotDef::Kind::kConstant;
    def.shape = t.shape();
    def.constant = t;
    const int slot = AddSlot(std::move(def));
    Register(t, slot);
    return slot;
  }

  // Translates one traced op into an Instr (everything except `out`).
  // Returns false after Fail() for ops outside the VM's coverage.
  bool Lower(const char* name, const std::vector<Variable>& inputs,
             const OpAttrs& attrs, Instr* instr) {
    struct Entry {
      const char* name;
      OpCode op;
      enum { kBinary, kScalar, kUnary } arity;
    };
    static constexpr Entry kTable[] = {
        {"Add", OpCode::kAdd, Entry::kBinary},
        {"Sub", OpCode::kSub, Entry::kBinary},
        {"Mul", OpCode::kMul, Entry::kBinary},
        {"Div", OpCode::kDiv, Entry::kBinary},
        {"MatMul", OpCode::kMatMul, Entry::kBinary},
        {"AddScalar", OpCode::kAddScalar, Entry::kScalar},
        {"MulScalar", OpCode::kMulScalar, Entry::kScalar},
        {"PowScalar", OpCode::kPowScalar, Entry::kScalar},
        {"ClampMin", OpCode::kClampMin, Entry::kScalar},
        {"LeakyRelu", OpCode::kLeakyRelu, Entry::kScalar},
        {"Entmax", OpCode::kEntmax, Entry::kScalar},
        {"Exp", OpCode::kExp, Entry::kUnary},
        {"Log", OpCode::kLog, Entry::kUnary},
        {"Abs", OpCode::kAbs, Entry::kUnary},
        {"Relu", OpCode::kRelu, Entry::kUnary},
        {"Square", OpCode::kSquare, Entry::kUnary},
        {"SumAll", OpCode::kSumAll, Entry::kUnary},
        {"Softmax", OpCode::kSoftmax, Entry::kUnary},
    };
    for (const Entry& e : kTable) {
      if (!Same(name, e.name)) continue;
      instr->op = e.op;
      instr->a = Resolve(inputs[0].value());
      if (e.arity == Entry::kBinary) {
        instr->b = Resolve(inputs[1].value());
      } else if (e.arity == Entry::kScalar) {
        instr->scalar = attrs.scalar;
      }
      return true;
    }

    if (Same(name, "Transpose")) {
      instr->op = OpCode::kTranspose;
      instr->a = Resolve(inputs[0].value());
      instr->axis = attrs.axis;
      instr->axis2 = attrs.axis2;
      return true;
    }
    if (Same(name, "Sum")) {
      instr->op = OpCode::kSum;
      instr->a = Resolve(inputs[0].value());
      instr->axis = attrs.axis;
      instr->keepdim = attrs.keepdim;
      return true;
    }
    if (Same(name, "Concat")) {
      instr->op = OpCode::kConcat;
      instr->axis = attrs.axis;
      instr->concat_in.reserve(inputs.size());
      for (const Variable& in : inputs) {
        instr->concat_in.push_back(Resolve(in.value()));
      }
      return true;
    }
    if (Same(name, "Slice")) {
      instr->op = OpCode::kSlice;
      instr->a = Resolve(inputs[0].value());
      instr->axis = attrs.axis;
      instr->start = attrs.start;
      instr->length = attrs.length;
      return true;
    }
    if (Same(name, "IndexSelect")) {
      if (attrs.indices == nullptr) {
        Fail("IndexSelect reached the tape without annotated indices");
        return false;
      }
      if (attrs.indices == &probe_.ids) {
        // No model does this today; refuse rather than bake request data in.
        Fail("IndexSelect over the per-request id vector is not compilable");
        return false;
      }
      instr->op = OpCode::kIndexSelect;
      instr->a = Resolve(inputs[0].value());
      instr->axis = attrs.axis;
      instr->indices = *attrs.indices;
      return true;
    }
    if (Same(name, "EmbeddingLookup")) {
      if (attrs.indices == nullptr) {
        Fail("EmbeddingLookup reached the tape without annotated ids");
        return false;
      }
      instr->op = OpCode::kEmbeddingLookup;
      instr->a = Resolve(inputs[0].value());
      if (attrs.indices == &probe_.ids) {
        instr->batch_ids = true;  // rebound to each request's ids at Run
      } else {
        instr->indices = *attrs.indices;
      }
      return true;
    }
    if (Same(name, "QuantEmbeddingLookup")) {
      if (attrs.indices == nullptr || attrs.qtable == nullptr ||
          *attrs.qtable == nullptr) {
        Fail("QuantEmbeddingLookup reached the tape without its ids or "
             "storage handle");
        return false;
      }
      // No tensor input: the quantized storage is captured by shared
      // ownership, so the plan keeps an mmap-backed table alive on its own.
      instr->op = OpCode::kQuantEmbeddingLookup;
      instr->qtable = *attrs.qtable;
      if (attrs.indices == &probe_.ids) {
        instr->batch_ids = true;
      } else {
        instr->indices = *attrs.indices;
      }
      return true;
    }

    Fail(std::string("op not covered by the plan VM: ") + name);
    return false;
  }

  const data::Batch& probe_;
  Program prog_;
  bool failed_ = false;
  std::string error_;
  // Every traced tensor is pinned until the trace completes so the heap can
  // never hand a live identity's pointer to a new value.
  std::vector<Tensor> keep_alive_;
  std::unordered_map<const float*, std::vector<std::pair<Shape, int>>> by_ptr_;
};

}  // namespace

StatusOr<Program> Trace(models::TabularModel& model,
                        const data::Batch& probe) {
  ARMNET_PROFILE_SCOPE("plan/trace");
  if (probe.batch_size <= 0 || probe.num_fields <= 0 ||
      static_cast<int64_t>(probe.ids.size()) !=
          probe.batch_size * probe.num_fields) {
    return Status::Error("plan tracer: malformed probe batch");
  }

  TraceBuilder builder(probe);
  Variable logits;
  {
    // Installs the sink and forces grad mode off for the forward.
    ag::trace::ScopedTraceSink guard(&builder);
    Rng rng(/*seed=*/0);  // eval-mode forwards draw no randomness
    logits = model.Forward(probe, rng);
  }
  if (!logits.defined() ||
      logits.value().numel() != probe.batch_size) {
    return Status::Error("plan tracer: model did not produce [batch] logits");
  }
  Status finished = builder.Finish(logits.value());
  if (!finished.ok()) return finished;
  return builder.TakeProgram();
}

}  // namespace armnet::plan

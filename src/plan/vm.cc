#include "plan/vm.h"

#include <algorithm>
#include <cstring>

#include "tensor/entmax.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/profiler.h"

namespace armnet::plan {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kAdd: return "Add";
    case OpCode::kSub: return "Sub";
    case OpCode::kMul: return "Mul";
    case OpCode::kDiv: return "Div";
    case OpCode::kAddScalar: return "AddScalar";
    case OpCode::kMulScalar: return "MulScalar";
    case OpCode::kPowScalar: return "PowScalar";
    case OpCode::kClampMin: return "ClampMin";
    case OpCode::kLeakyRelu: return "LeakyRelu";
    case OpCode::kExp: return "Exp";
    case OpCode::kLog: return "Log";
    case OpCode::kAbs: return "Abs";
    case OpCode::kRelu: return "Relu";
    case OpCode::kSquare: return "Square";
    case OpCode::kMatMul: return "MatMul";
    case OpCode::kTranspose: return "Transpose";
    case OpCode::kSum: return "Sum";
    case OpCode::kSumAll: return "SumAll";
    case OpCode::kConcat: return "Concat";
    case OpCode::kSlice: return "Slice";
    case OpCode::kIndexSelect: return "IndexSelect";
    case OpCode::kEmbeddingLookup: return "EmbeddingLookup";
    case OpCode::kQuantEmbeddingLookup: return "QuantEmbeddingLookup";
    case OpCode::kSoftmax: return "Softmax";
    case OpCode::kEntmax: return "Entmax";
  }
  return "?";
}

ExecutionContext CreateContext(const Program& prog) {
  ARMNET_CHECK(prog.planned);
  ExecutionContext ctx;
  // Allocated once per context; the context is then reused from the
  // freelist, so a cached-plan replay allocates no tensor.
  ctx.arena = Tensor(Shape({std::max<int64_t>(prog.arena_floats, 1)}));
  ctx.bound.reserve(prog.slots.size());
  for (size_t s = 0; s < prog.slots.size(); ++s) {
    const SlotDef& def = prog.slots[s];
    switch (def.kind) {
      case SlotDef::Kind::kConstant:
        ctx.bound.push_back(def.constant);
        break;
      case SlotDef::Kind::kIntermediate:
      case SlotDef::Kind::kBatchValues: {
        const int64_t offset = prog.arena_offset[s];
        if (offset < 0) {
          // Dead slot (its producer was fused away): never referenced.
          ctx.bound.emplace_back();
          break;
        }
        ctx.bound.push_back(ctx.arena.ViewSlice(offset, def.shape));
        break;
      }
      case SlotDef::Kind::kAlias: {
        const int root = prog.RootSlot(static_cast<int>(s));
        if (prog.slots[root].kind == SlotDef::Kind::kConstant) {
          ctx.bound.push_back(prog.slots[root].constant.Reshape(def.shape));
        } else {
          ctx.bound.push_back(
              ctx.arena.ViewSlice(prog.arena_offset[root], def.shape));
        }
        break;
      }
    }
  }
  ctx.concat_args.resize(prog.instrs.size());
  for (size_t i = 0; i < prog.instrs.size(); ++i) {
    for (int s : prog.instrs[i].concat_in) {
      ctx.concat_args[i].push_back(&ctx.bound[s]);
    }
  }
  return ctx;
}

namespace {

// Applies one fused epilogue in place on the instruction's freshly written
// output buffer, under tmath's documented aliasing contract.
void RunEpilogue(const Epilogue& e, const std::vector<Tensor>& bound,
                 Tensor& out) {
  switch (e.op) {
    case OpCode::kExp: tmath::ExpOut(out, out); return;
    case OpCode::kLog: tmath::LogOut(out, out); return;
    case OpCode::kAbs: tmath::AbsOut(out, out); return;
    case OpCode::kRelu: tmath::ReluOut(out, out); return;
    case OpCode::kSquare: tmath::SquareOut(out, out); return;
    case OpCode::kAddScalar: tmath::AddScalarOut(out, e.scalar, out); return;
    case OpCode::kMulScalar: tmath::MulScalarOut(out, e.scalar, out); return;
    case OpCode::kPowScalar: tmath::PowScalarOut(out, e.scalar, out); return;
    case OpCode::kClampMin: tmath::ClampMinOut(out, e.scalar, out); return;
    case OpCode::kLeakyRelu: tmath::LeakyReluOut(out, e.scalar, out); return;
    case OpCode::kAdd:
      if (e.fused_lhs) tmath::AddOut(out, bound[e.operand], out);
      else tmath::AddOut(bound[e.operand], out, out);
      return;
    case OpCode::kSub:
      if (e.fused_lhs) tmath::SubOut(out, bound[e.operand], out);
      else tmath::SubOut(bound[e.operand], out, out);
      return;
    case OpCode::kMul:
      if (e.fused_lhs) tmath::MulOut(out, bound[e.operand], out);
      else tmath::MulOut(bound[e.operand], out, out);
      return;
    case OpCode::kDiv:
      if (e.fused_lhs) tmath::DivOut(out, bound[e.operand], out);
      else tmath::DivOut(bound[e.operand], out, out);
      return;
    default:
      ARMNET_CHECK(false) << "non-epilogue opcode " << OpCodeName(e.op);
  }
}

}  // namespace

void Execute(const Program& prog, ExecutionContext& ctx,
             const data::Batch& batch, float* logits_out) {
  ARMNET_PROFILE_SCOPE("plan/execute");
  ARMNET_DCHECK(prog.planned);
  ARMNET_DCHECK(batch.batch_size == prog.batch_size);
  ARMNET_DCHECK(batch.num_fields == prog.num_fields);

  // Prologue: bind this request's per-field values into the arena. (The id
  // vector is consumed directly by EmbeddingLookup instructions below.)
  for (size_t s = 0; s < prog.slots.size(); ++s) {
    if (prog.slots[s].kind != SlotDef::Kind::kBatchValues) continue;
    Tensor& dst = ctx.bound[s];
    std::memcpy(dst.data(), batch.values.data(),
                static_cast<size_t>(dst.numel()) * sizeof(float));
  }

  std::vector<Tensor>& bound = ctx.bound;
  for (size_t i = 0; i < prog.instrs.size(); ++i) {
    const Instr& in = prog.instrs[i];
    Tensor& out = bound[in.out];
    switch (in.op) {
      case OpCode::kAdd: tmath::AddOut(bound[in.a], bound[in.b], out); break;
      case OpCode::kSub: tmath::SubOut(bound[in.a], bound[in.b], out); break;
      case OpCode::kMul: tmath::MulOut(bound[in.a], bound[in.b], out); break;
      case OpCode::kDiv: tmath::DivOut(bound[in.a], bound[in.b], out); break;
      case OpCode::kAddScalar:
        tmath::AddScalarOut(bound[in.a], in.scalar, out);
        break;
      case OpCode::kMulScalar:
        tmath::MulScalarOut(bound[in.a], in.scalar, out);
        break;
      case OpCode::kPowScalar:
        tmath::PowScalarOut(bound[in.a], in.scalar, out);
        break;
      case OpCode::kClampMin:
        tmath::ClampMinOut(bound[in.a], in.scalar, out);
        break;
      case OpCode::kLeakyRelu:
        tmath::LeakyReluOut(bound[in.a], in.scalar, out);
        break;
      case OpCode::kExp: tmath::ExpOut(bound[in.a], out); break;
      case OpCode::kLog: tmath::LogOut(bound[in.a], out); break;
      case OpCode::kAbs: tmath::AbsOut(bound[in.a], out); break;
      case OpCode::kRelu: tmath::ReluOut(bound[in.a], out); break;
      case OpCode::kSquare: tmath::SquareOut(bound[in.a], out); break;
      case OpCode::kMatMul:
        tmath::MatMulOut(bound[in.a], bound[in.b], out);
        break;
      case OpCode::kTranspose:
        tmath::TransposeOut(bound[in.a], in.axis, in.axis2, out);
        break;
      case OpCode::kSum:
        tmath::SumOut(bound[in.a], in.axis, in.keepdim, out);
        break;
      case OpCode::kSumAll: tmath::SumAllOut(bound[in.a], out); break;
      case OpCode::kConcat:
        tmath::ConcatOut(ctx.concat_args[i], in.axis, out);
        break;
      case OpCode::kSlice:
        tmath::SliceOut(bound[in.a], in.axis, in.start, in.length, out);
        break;
      case OpCode::kIndexSelect:
        tmath::IndexSelectOut(bound[in.a], in.axis, in.indices, out);
        break;
      case OpCode::kEmbeddingLookup:
        tmath::GatherRowsOut(bound[in.a],
                             in.batch_ids ? batch.ids : in.indices, out);
        break;
      case OpCode::kQuantEmbeddingLookup:
        in.qtable->GatherRowsOut(in.batch_ids ? batch.ids : in.indices, out);
        break;
      case OpCode::kSoftmax: tmath::SoftmaxLastDimOut(bound[in.a], out); break;
      case OpCode::kEntmax:
        tmath::EntmaxLastDimOut(bound[in.a], in.scalar, out);
        break;
    }
    for (const Epilogue& e : in.epilogues) RunEpilogue(e, bound, out);
  }

  const Tensor& logits = bound[prog.output];
  std::memcpy(logits_out, logits.data(),
              static_cast<size_t>(prog.batch_size) * sizeof(float));
}

}  // namespace armnet::plan

#include "engines/incremental/compiler.h"

#include <algorithm>

namespace rtic {
namespace inc {

namespace {

using tl::Formula;
using tl::FormulaKind;

Status Walk(const Formula& f, const tl::Analysis& analysis,
            CompiledNetwork* out) {
  // Children first: the engine updates auxiliaries bottom-up so that a
  // parent's body evaluation can consume its children's current relations.
  const std::size_t first_descendant = out->nodes.size();
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    RTIC_RETURN_IF_ERROR(Walk(f.child(i), analysis, out));
  }
  switch (f.kind()) {
    case FormulaKind::kHistorically:
      return Status::FailedPrecondition(
          "incremental compiler requires historically-free input (run "
          "NormalizeForEngines first)");
    case FormulaKind::kEventually:
      return Status::InvalidArgument(
          "bounded-future operator `eventually` requires a response "
          "constraint engine (forall ...: trigger implies eventually[a, b] "
          "response)");
    case FormulaKind::kPrevious:
    case FormulaKind::kOnce:
    case FormulaKind::kSince: {
      CompiledNode cn;
      cn.node = &f;
      cn.columns = analysis.ColumnsFor(f);
      if (f.kind() == FormulaKind::kSince) {
        // Positions of free(lhs) inside the node's column list (= sorted
        // free(rhs); the analyzer guarantees free(lhs) ⊆ free(rhs)).
        for (const std::string& v : analysis.FreeVars(f.child(0))) {
          for (std::size_t c = 0; c < cn.columns.size(); ++c) {
            if (cn.columns[c].name == v) {
              cn.lhs_projection.push_back(c);
              break;
            }
          }
        }
      }
      cn.aux_name = "aux" + std::to_string(out->nodes.size()) + "_" +
                    FormulaKindToString(f.kind());
      cn.first_descendant = first_descendant;
      out->index[&f] = out->nodes.size();
      out->nodes.push_back(std::move(cn));
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

}  // namespace

Result<CompiledNetwork> CompileNetwork(const Formula& root,
                                       const tl::Analysis& analysis) {
  CompiledNetwork network;
  RTIC_RETURN_IF_ERROR(Walk(root, analysis, &network));
  return network;
}

}  // namespace inc
}  // namespace rtic

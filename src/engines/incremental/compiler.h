// Compiler from a normalized constraint to an auxiliary-relation network:
// one node per temporal subformula, ordered bottom-up (post-order), each
// carrying the metadata its per-transition update rule needs.

#ifndef RTIC_ENGINES_INCREMENTAL_COMPILER_H_
#define RTIC_ENGINES_INCREMENTAL_COMPILER_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "tl/analyzer.h"
#include "tl/ast.h"
#include "types/schema.h"

namespace rtic {
namespace inc {

/// Static description of one temporal subformula's auxiliary state.
struct CompiledNode {
  /// The temporal subformula (points into the engine-owned formula tree).
  const tl::Formula* node = nullptr;

  /// Columns of the node's satisfaction relation (sorted free variables).
  std::vector<Column> columns;

  /// since only: positions in `columns` of the lhs's free variables — the
  /// projection used by the survivor filter.
  std::vector<std::size_t> lhs_projection;

  /// Human-readable aux-table name ("aux0_since", ...).
  std::string aux_name;

  /// The temporal nodes inside this one's body are exactly the network
  /// nodes [first_descendant, own index) (post-order keeps them together).
  std::size_t first_descendant = 0;
};

/// The full network plus lookup from node address to network index.
struct CompiledNetwork {
  std::vector<CompiledNode> nodes;                 // post-order
  std::map<const tl::Formula*, std::size_t> index; // node -> position
};

/// Compiles `root` (already normalized: no historically nodes) using
/// `analysis` of that same tree. Fails on a non-normalized kind.
Result<CompiledNetwork> CompileNetwork(const tl::Formula& root,
                                       const tl::Analysis& analysis);

}  // namespace inc
}  // namespace rtic

#endif  // RTIC_ENGINES_INCREMENTAL_COMPILER_H_

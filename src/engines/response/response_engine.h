// ResponseEngine: bounded-future *response constraints* — the extension the
// past-only PODS'92 formalism naturally points to:
//
//   forall x̄: trigger implies eventually[a, b] response
//
// ("whenever `trigger` holds for x̄, `response` must hold for x̄ at some
// state whose time is between a and b units later"). The canonical
// real-time requirement — "every raised alarm is acknowledged within 10
// time units" — stated directly, rather than through its past-looking
// contrapositive.
//
// Monitoring a future obligation necessarily DELAYS the verdict: whether
// state i satisfies the constraint is known only once the response window
// has closed. The engine therefore keeps an *obligation table*
// (valuation -> outstanding trigger timestamps, the future mirror of the
// bounded history encoding) and attributes each violation to the first
// state at which its window has provably closed unmet. OnTransition
// returns false exactly at such states; CurrentCounterexamples lists the
// valuations whose obligations expired there. Space is bounded by the
// window width and the trigger rate — never by history length.
//
// The engine keeps a cumulative domain tracker only if its trigger or its
// response can read the domain (tl::DomainSafety); otherwise the tracker
// stays empty and checkpoints carry an empty domain section.
//
// v1 restrictions (checked at Create):
//   * the constraint shape is `forall x̄:`* `trigger implies eventually[a,b]
//     response` (the forall prefix may be empty for 0-ary constraints);
//   * the interval is bounded (b < inf) — unbounded eventually is not
//     monitorable;
//   * free(response) ⊆ free(trigger);
//   * trigger and response are present-state formulas (no nested temporal
//     operators) — composing future with past bodies is future work.

#ifndef RTIC_ENGINES_RESPONSE_RESPONSE_ENGINE_H_
#define RTIC_ENGINES_RESPONSE_RESPONSE_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "engines/checker_engine.h"
#include "fo/eval.h"
#include "tl/analyzer.h"
#include "tl/ast.h"

namespace rtic {

/// Options controlling a ResponseEngine.
struct ResponseOptions {
  /// Extra constants contributing to every state's active domain.
  std::vector<Value> extra_constants;
};

/// Obligation-tracking checker for `trigger implies eventually[a,b]
/// response` constraints.
class ResponseEngine : public CheckerEngine {
 public:
  /// Compiles `constraint` (closed, response-shaped; see header comment).
  static Result<std::unique_ptr<ResponseEngine>> Create(
      const tl::Formula& constraint, const tl::PredicateCatalog& catalog,
      ResponseOptions options = {});

  /// Returns false iff some obligation's window closed UNMET at this state
  /// (the violation is attributed to this state; the triggering state is
  /// recoverable from the obligation timestamp).
  Result<bool> OnTransition(const Database& state, Timestamp t) override;

  /// Valuations whose obligations expired at the most recent state, over
  /// the trigger's free variables.
  Result<Relation> CurrentCounterexamples(const Database& state) override;

  std::size_t StorageRows() const override;
  const char* name() const override { return "response"; }

  /// Outstanding (undischarged, unexpired) obligations.
  std::size_t PendingObligations() const;

  /// Trigger timestamps of obligations that expired at the last state,
  /// paired with their valuations (diagnostics and tests).
  struct ExpiredObligation {
    Tuple valuation;       // over sorted free(trigger)
    Timestamp trigger_time;
  };
  const std::vector<ExpiredObligation>& LastExpired() const {
    return last_expired_;
  }

  /// True iff `constraint` has the response shape this engine accepts
  /// (used by the monitor to route registration).
  static bool LooksLikeResponseConstraint(const tl::Formula& constraint);

  /// Scans atoms through `cache` (a monitor passes one to all of its
  /// engines) instead of the engine's private one; verdicts are the same.
  void UseScanCache(std::shared_ptr<fo::ScanCache> cache) {
    scratch_.UseScanCache(std::move(cache));
  }

  /// Checkpointing: obligations are bounded by window x trigger rate, so a
  /// response checker can be persisted and resumed without history replay,
  /// exactly like the incremental engine.
  Result<std::string> SaveState() const override;
  Status LoadState(const std::string& data) override;

 private:
  ResponseEngine(tl::FormulaPtr constraint, tl::Analysis analysis,
                 ResponseOptions options);

  fo::EvalContext ContextFor(const Database& state);

  /// Evaluates `f` against `state` from a cleared read record (nothing
  /// here reads the record, so this only keeps it from growing).
  Result<Relation> Evaluate(const tl::Formula& f, const Database& state);

  tl::FormulaPtr constraint_;   // the full, closed formula (owned clone)
  tl::Analysis analysis_;
  ResponseOptions options_;

  const tl::Formula* trigger_ = nullptr;    // implies lhs
  const tl::Formula* response_ = nullptr;   // eventually body
  TimeInterval window_;
  std::vector<std::size_t> response_projection_;  // trigger cols -> response

  /// valuation over sorted free(trigger) -> ascending trigger timestamps.
  std::map<Tuple, std::vector<Timestamp>> obligations_;

  std::vector<ExpiredObligation> last_expired_;
  DomainTracker domain_;
  fo::EvalScratch scratch_;  // atom plans, bound to a scan cache
  bool has_prev_ = false;
  Timestamp prev_time_ = 0;
};

}  // namespace rtic

#endif  // RTIC_ENGINES_RESPONSE_RESPONSE_ENGINE_H_

#include "engines/active/compiler.h"

#include <map>
#include <utility>

#include "fo/witness.h"
#include "tl/normalizer.h"

namespace rtic {

using tl::Formula;
using tl::FormulaKind;

namespace {

/// Timestamp column appended to anchor tables; user variables may not use it.
constexpr char kTsColumn[] = "__ts__";

std::string CurTable(std::size_t i) { return "cur_" + std::to_string(i); }
std::string AuxTable(std::size_t i) { return "aux_" + std::to_string(i); }
std::string PrevTable(std::size_t i) {
  return "prevbody_" + std::to_string(i);
}

}  // namespace

Result<std::unique_ptr<ActiveEngine>> ActiveEngine::Create(
    const Formula& constraint, const tl::PredicateCatalog& catalog,
    ActiveOptions options) {
  tl::FormulaPtr normalized = tl::NormalizeForEngines(constraint);
  RTIC_ASSIGN_OR_RETURN(tl::Analysis analysis,
                        tl::Analyze(*normalized, catalog));
  if (!analysis.IsClosed(*normalized)) {
    return Status::InvalidArgument(
        "constraint must be a closed formula; free variables remain");
  }
  RTIC_ASSIGN_OR_RETURN(inc::CompiledNetwork network,
                        inc::CompileNetwork(*normalized, analysis));
  for (const inc::CompiledNode& cn : network.nodes) {
    for (const Column& c : cn.columns) {
      if (c.name == kTsColumn) {
        return Status::InvalidArgument(
            "variable name '__ts__' is reserved by the active engine");
      }
    }
  }
  auto engine = std::unique_ptr<ActiveEngine>(
      new ActiveEngine(std::move(normalized), std::move(analysis),
                       std::move(network), std::move(options)));
  RTIC_RETURN_IF_ERROR(engine->BuildStore());
  RTIC_RETURN_IF_ERROR(engine->BuildRules());
  return engine;
}

ActiveEngine::ActiveEngine(tl::FormulaPtr constraint, tl::Analysis analysis,
                           inc::CompiledNetwork network, ActiveOptions options)
    : constraint_(std::move(constraint)),
      analysis_(std::move(analysis)),
      network_(std::move(network)),
      options_(std::move(options)) {
  domain_.set_maintained(analysis_.reads_domain());
}

Status ActiveEngine::BuildStore() {
  Database* store = rule_engine_.mutable_store();
  for (std::size_t i = 0; i < network_.nodes.size(); ++i) {
    const inc::CompiledNode& cn = network_.nodes[i];
    RTIC_RETURN_IF_ERROR(store->CreateTable(CurTable(i), Schema(cn.columns)));
    switch (cn.node->kind()) {
      case FormulaKind::kPrevious:
        RTIC_RETURN_IF_ERROR(
            store->CreateTable(PrevTable(i), Schema(cn.columns)));
        break;
      case FormulaKind::kOnce:
      case FormulaKind::kSince: {
        std::vector<Column> with_ts = cn.columns;
        with_ts.push_back(Column{kTsColumn, ValueType::kInt64});
        RTIC_RETURN_IF_ERROR(
            store->CreateTable(AuxTable(i), Schema(std::move(with_ts))));
        break;
      }
      default:
        return Status::Internal("non-temporal node in compiled network");
    }
  }
  return store->CreateTable(
      "__violations", Schema({Column{"ts", ValueType::kInt64}}));
}

fo::EvalContext ActiveEngine::ContextFor(const Database& state) {
  fo::EvalContext ctx;
  ctx.db = &state;
  ctx.analysis = &analysis_;
  ctx.extra_constants = &options_.extra_constants;
  ctx.domain = &domain_;
  ctx.resolver = [this](const Formula& node) -> Result<Relation> {
    auto it = network_.index.find(&node);
    if (it == network_.index.end()) {
      return Status::Internal("temporal node missing from compiled network");
    }
    return ReadTable(CurTable(it->second),
                     network_.nodes[it->second].columns);
  };
  return ctx;
}

Result<Relation> ActiveEngine::ReadTable(
    const std::string& table, const std::vector<Column>& columns) const {
  RTIC_ASSIGN_OR_RETURN(const Table* t,
                        rule_engine_.store().GetTable(table));
  Relation rel(columns);
  for (const Tuple& row : t->rows()) rel.InsertUnchecked(row);
  return rel;
}

Status ActiveEngine::WriteTable(const std::string& table,
                                const Relation& rel) {
  RTIC_ASSIGN_OR_RETURN(Table * t,
                        rule_engine_.mutable_store()->GetMutableTable(table));
  t->Clear();
  for (const Tuple& row : rel.rows()) {
    Result<bool> r = t->Insert(row);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

Status ActiveEngine::BuildRules() {
  // One maintenance rule per temporal node, firing bottom-up.
  for (std::size_t i = 0; i < network_.nodes.size(); ++i) {
    const inc::CompiledNode& cn = network_.nodes[i];
    active::Rule rule("maintain_" + cn.aux_name, static_cast<int>(i));
    const Formula* node = cn.node;
    const std::vector<Column> columns = cn.columns;
    const std::vector<std::size_t> lhs_projection = cn.lhs_projection;
    const TimeInterval interval = node->interval();
    const PruningPolicy pruning = options_.pruning;

    switch (node->kind()) {
      case FormulaKind::kPrevious: {
        rule.Do([this, i, node, columns, interval](
                    const active::RuleContext& ctx) -> Status {
          // cur := gate(prevbody); prevbody := eval(body, now).
          Relation cur(columns);
          if (ctx.has_prev && interval.Contains(ctx.now - ctx.prev)) {
            RTIC_ASSIGN_OR_RETURN(cur, ReadTable(PrevTable(i), columns));
          }
          RTIC_RETURN_IF_ERROR(WriteTable(CurTable(i), cur));
          RTIC_ASSIGN_OR_RETURN(
              Relation body_now,
              fo::Evaluate(node->child(0), ContextFor(*ctx.state)));
          return WriteTable(PrevTable(i), body_now);
        });
        break;
      }
      case FormulaKind::kOnce:
      case FormulaKind::kSince: {
        const bool is_since = node->kind() == FormulaKind::kSince;
        rule.Do([this, i, node, columns, lhs_projection, interval, pruning,
                 is_since](const active::RuleContext& ctx) -> Status {
          Table* aux =
              ctx.store->GetMutableTable(AuxTable(i)).value();
          fo::EvalContext eval_ctx = ContextFor(*ctx.state);

          if (is_since) {
            // DELETE FROM aux WHERE lhs-projection NOT IN lhs_now.
            RTIC_ASSIGN_OR_RETURN(
                Relation lhs_now,
                fo::Evaluate(node->child(0), eval_ctx));
            std::vector<Tuple> doomed;
            for (const Tuple& row : aux->rows()) {
              std::vector<Value> proj;
              proj.reserve(lhs_projection.size());
              for (std::size_t c : lhs_projection) proj.push_back(row.at(c));
              if (!lhs_now.Contains(Tuple(std::move(proj)))) {
                doomed.push_back(row);
              }
            }
            for (const Tuple& row : doomed) aux->Erase(row);
          }

          // INSERT INTO aux SELECT body_now, now.
          const Formula& anchor_src =
              is_since ? node->child(1) : node->child(0);
          RTIC_ASSIGN_OR_RETURN(Relation body_now,
                                fo::Evaluate(anchor_src, eval_ctx));
          for (const Tuple& row : body_now.rows()) {
            std::vector<Value> vals = row.values();
            vals.push_back(Value::Int64(ctx.now));
            Result<bool> r = aux->Insert(Tuple(std::move(vals)));
            if (!r.ok()) return r.status();
          }

          // Prune: regroup anchors per valuation, apply the policy, rewrite.
          std::map<Tuple, std::vector<Timestamp>> groups;
          for (const Tuple& row : aux->rows()) {
            std::vector<Value> vals(row.values().begin(),
                                    row.values().end() - 1);
            groups[Tuple(std::move(vals))].push_back(
                row.values().back().AsInt64());
          }
          aux->Clear();
          Relation cur(columns);
          for (auto& [valuation, timestamps] : groups) {
            std::sort(timestamps.begin(), timestamps.end());
            PruneTimestamps(&timestamps, ctx.now, interval, pruning);
            for (Timestamp ts : timestamps) {
              std::vector<Value> vals = valuation.values();
              vals.push_back(Value::Int64(ts));
              Result<bool> r = aux->Insert(Tuple(std::move(vals)));
              if (!r.ok()) return r.status();
            }
            if (AnyInWindow(timestamps, ctx.now, interval)) {
              cur.InsertUnchecked(valuation);
            }
          }
          return WriteTable(CurTable(i), cur);
        });
        break;
      }
      default:
        return Status::Internal("non-temporal node in compiled network");
    }
    RTIC_RETURN_IF_ERROR(rule_engine_.AddRule(std::move(rule)));
  }

  // Final check rule: evaluate the constraint, log violations.
  active::Rule check("check_constraint",
                     static_cast<int>(network_.nodes.size()));
  check.Do([this](const active::RuleContext& ctx) -> Status {
    RTIC_ASSIGN_OR_RETURN(Relation verdict,
                          fo::Evaluate(*constraint_, ContextFor(*ctx.state)));
    last_verdict_ = verdict.AsBool();
    if (!last_verdict_) {
      Table* violations =
          ctx.store->GetMutableTable("__violations").value();
      Result<bool> r = violations->Insert(Tuple{Value::Int64(ctx.now)});
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  });
  return rule_engine_.AddRule(std::move(check));
}

Result<bool> ActiveEngine::OnTransition(const Database& state, Timestamp t) {
  domain_.Absorb(state);
  RTIC_ASSIGN_OR_RETURN(int fired, rule_engine_.ProcessTransition(state, t));
  (void)fired;
  return last_verdict_;
}

Result<Relation> ActiveEngine::CurrentCounterexamples(const Database& state) {
  return fo::ComputeCounterexamples(*constraint_, ContextFor(state));
}

std::size_t ActiveEngine::StorageRows() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < network_.nodes.size(); ++i) {
    switch (network_.nodes[i].node->kind()) {
      case FormulaKind::kPrevious: {
        n += rule_engine_.store().GetTable(PrevTable(i)).value()->size();
        break;
      }
      case FormulaKind::kOnce:
      case FormulaKind::kSince:
        n += rule_engine_.store().GetTable(AuxTable(i)).value()->size();
        break;
      default:
        break;
    }
  }
  return n;
}

std::vector<Timestamp> ActiveEngine::ViolationLog() const {
  std::vector<Timestamp> out;
  const Table* t = rule_engine_.store().GetTable("__violations").value();
  for (const Tuple& row : t->rows()) out.push_back(row.at(0).AsInt64());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rtic

#include "engines/response/response_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "storage/codec.h"
#include "tl/domain_safety.h"

namespace rtic {

using tl::Formula;
using tl::FormulaKind;

namespace {

/// Strips the forall prefix, returning the quantifier-free body.
const Formula* StripForalls(const Formula& root) {
  const Formula* body = &root;
  while (body->kind() == FormulaKind::kForall) body = &body->child(0);
  return body;
}

/// True iff the subtree contains any temporal operator (past or future).
bool ContainsTemporal(const Formula& f) {
  if (IsTemporal(f.kind()) || IsFutureTemporal(f.kind())) return true;
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    if (ContainsTemporal(f.child(i))) return true;
  }
  return false;
}

}  // namespace

bool ResponseEngine::LooksLikeResponseConstraint(const Formula& constraint) {
  const Formula* body = StripForalls(constraint);
  return body->kind() == FormulaKind::kImplies &&
         body->child(1).kind() == FormulaKind::kEventually;
}

Result<std::unique_ptr<ResponseEngine>> ResponseEngine::Create(
    const Formula& constraint, const tl::PredicateCatalog& catalog,
    ResponseOptions options) {
  tl::FormulaPtr clone = constraint.Clone();
  RTIC_ASSIGN_OR_RETURN(tl::Analysis analysis, tl::Analyze(*clone, catalog));
  if (!analysis.IsClosed(*clone)) {
    return Status::InvalidArgument(
        "constraint must be a closed formula; free variables remain");
  }

  const Formula* body = StripForalls(*clone);
  if (body->kind() != FormulaKind::kImplies ||
      body->child(1).kind() != FormulaKind::kEventually) {
    return Status::InvalidArgument(
        "response constraints must have the shape `forall ...: trigger "
        "implies eventually[a, b] response`");
  }
  const Formula* trigger = &body->child(0);
  const Formula* eventually = &body->child(1);
  const Formula* response = &eventually->child(0);

  if (eventually->interval().unbounded()) {
    return Status::InvalidArgument(
        "`eventually` requires a bounded interval: an unbounded response "
        "window is not monitorable");
  }
  if (ContainsTemporal(*trigger)) {
    return Status::Unimplemented(
        "temporal operators inside a response trigger are not supported "
        "yet; the trigger must be a present-state formula");
  }
  if (ContainsTemporal(*response)) {
    return Status::Unimplemented(
        "temporal operators inside a response body are not supported yet; "
        "the response must be a present-state formula");
  }
  // free(response) ⊆ free(trigger): the obligation's valuation must
  // determine the response check.
  const auto& trigger_free = analysis.FreeVars(*trigger);
  for (const std::string& v : analysis.FreeVars(*response)) {
    if (!std::binary_search(trigger_free.begin(), trigger_free.end(), v)) {
      return Status::InvalidArgument(
          "response variable '" + v +
          "' is not bound by the trigger (free(response) must be a subset "
          "of free(trigger))");
    }
  }

  auto engine = std::unique_ptr<ResponseEngine>(new ResponseEngine(
      std::move(clone), std::move(analysis), std::move(options)));
  engine->trigger_ = trigger;
  engine->response_ = response;
  engine->window_ = eventually->interval();
  // The engine evaluates its trigger and its response and nothing else, so
  // it keeps a domain tracker only if one of them can read it.
  tl::DomainSafety safety(engine->analysis_);
  engine->domain_.set_maintained(!safety.EvalSafe(*trigger) ||
                                 !safety.EvalSafe(*response));
  // Positions of free(response) inside sorted free(trigger).
  const auto& resp_free = engine->analysis_.FreeVars(*response);
  for (const std::string& v : resp_free) {
    for (std::size_t c = 0; c < trigger_free.size(); ++c) {
      if (trigger_free[c] == v) {
        engine->response_projection_.push_back(c);
        break;
      }
    }
  }
  return engine;
}

ResponseEngine::ResponseEngine(tl::FormulaPtr constraint,
                               tl::Analysis analysis, ResponseOptions options)
    : constraint_(std::move(constraint)),
      analysis_(std::move(analysis)),
      options_(std::move(options)) {}

fo::EvalContext ResponseEngine::ContextFor(const Database& state) {
  fo::EvalContext ctx;
  ctx.db = &state;
  ctx.analysis = &analysis_;
  ctx.extra_constants = &options_.extra_constants;
  ctx.domain = &domain_;
  ctx.scratch = &scratch_;
  return ctx;
}

Result<Relation> ResponseEngine::Evaluate(const Formula& f,
                                          const Database& state) {
  scratch_.ClearReads();
  return fo::Evaluate(f, ContextFor(state));
}

Result<bool> ResponseEngine::OnTransition(const Database& state,
                                          Timestamp t) {
  if (has_prev_ && t <= prev_time_) {
    return Status::InvalidArgument(
        "timestamps must be strictly increasing: " + std::to_string(t) +
        " after " + std::to_string(prev_time_));
  }
  domain_.Absorb(state);

  // 1. New obligations from the trigger.
  RTIC_ASSIGN_OR_RETURN(Relation triggered, Evaluate(*trigger_, state));
  for (const Tuple& row : triggered.rows()) {
    obligations_[row].push_back(t);
  }

  // 2. Discharge: a response now meets every obligation whose window
  //    contains the current distance. With no response there is nothing
  //    to probe, so the pass over pending obligations is skipped.
  RTIC_ASSIGN_OR_RETURN(Relation responded, Evaluate(*response_, state));
  for (auto& [valuation, timestamps] : obligations_) {
    if (responded.empty()) break;
    std::vector<Value> proj;
    proj.reserve(response_projection_.size());
    for (std::size_t c : response_projection_) {
      proj.push_back(valuation.at(c));
    }
    if (!responded.Contains(Tuple(std::move(proj)))) continue;
    timestamps.erase(
        std::remove_if(timestamps.begin(), timestamps.end(),
                       [&](Timestamp t0) {
                         return window_.Contains(t - t0);
                       }),
        timestamps.end());
  }

  // 3. Expire: once the current distance reaches the window's upper end,
  //    no future state can discharge the obligation.
  last_expired_.clear();
  for (auto it = obligations_.begin(); it != obligations_.end();) {
    std::vector<Timestamp>& timestamps = it->second;
    auto first_alive = std::partition_point(
        timestamps.begin(), timestamps.end(),
        [&](Timestamp t0) { return t - t0 >= window_.hi(); });
    for (auto dead = timestamps.begin(); dead != first_alive; ++dead) {
      last_expired_.push_back(ExpiredObligation{it->first, *dead});
    }
    timestamps.erase(timestamps.begin(), first_alive);
    if (timestamps.empty()) {
      it = obligations_.erase(it);
    } else {
      ++it;
    }
  }

  has_prev_ = true;
  prev_time_ = t;
  return last_expired_.empty();
}

Result<Relation> ResponseEngine::CurrentCounterexamples(
    const Database& /*state*/) {
  if (!has_prev_) {
    return Status::FailedPrecondition("no transitions processed yet");
  }
  Relation out(analysis_.ColumnsFor(*trigger_));
  for (const ExpiredObligation& e : last_expired_) {
    out.InsertUnchecked(e.valuation);
  }
  return out;
}

std::size_t ResponseEngine::StorageRows() const {
  std::size_t n = 0;
  for (const auto& [valuation, timestamps] : obligations_) {
    n += timestamps.size();
  }
  return n;
}

std::size_t ResponseEngine::PendingObligations() const {
  return StorageRows();
}

namespace {
constexpr char kResponseMagic[] = "RTICRESP1";
}  // namespace

Result<std::string> ResponseEngine::SaveState() const {
  StateWriter w;
  w.WriteString(kResponseMagic);
  w.WriteString(constraint_->ToString());
  w.WriteInt(has_prev_ ? 1 : 0);
  w.WriteInt(prev_time_);

  std::vector<Value> domain_values = domain_.AllValues();
  w.WriteSize(domain_values.size());
  for (const Value& v : domain_values) w.WriteValue(v);

  w.WriteSize(obligations_.size());
  for (const auto& [valuation, timestamps] : obligations_) {
    w.WriteTuple(valuation);
    w.WriteSize(timestamps.size());
    for (Timestamp ts : timestamps) w.WriteInt(ts);
  }
  return w.str();
}

Status ResponseEngine::LoadState(const std::string& data) {
  StateReader r(data);
  RTIC_ASSIGN_OR_RETURN(std::string magic, r.ReadString());
  if (magic != kResponseMagic) {
    return Status::InvalidArgument("not an rtic response checkpoint");
  }
  RTIC_ASSIGN_OR_RETURN(std::string constraint_text, r.ReadString());
  if (constraint_text != constraint_->ToString()) {
    return Status::FailedPrecondition(
        "checkpoint was produced for a different constraint: " +
        constraint_text);
  }
  RTIC_ASSIGN_OR_RETURN(std::int64_t has_prev, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(Timestamp prev_time, r.ReadInt());

  RTIC_ASSIGN_OR_RETURN(std::int64_t domain_count, r.ReadInt());
  // An unmaintained tracker drops the values a checkpoint carries.
  DomainTracker domain;
  domain.set_maintained(domain_.maintained());
  std::vector<Value> domain_values;
  for (std::int64_t i = 0; i < domain_count; ++i) {
    RTIC_ASSIGN_OR_RETURN(Value v, r.ReadValue());
    domain_values.push_back(std::move(v));
  }
  domain.AbsorbValues(domain_values);

  RTIC_ASSIGN_OR_RETURN(std::int64_t entry_count, r.ReadInt());
  std::map<Tuple, std::vector<Timestamp>> obligations;
  for (std::int64_t i = 0; i < entry_count; ++i) {
    RTIC_ASSIGN_OR_RETURN(Tuple valuation, r.ReadTuple());
    RTIC_ASSIGN_OR_RETURN(std::int64_t ts_count, r.ReadInt());
    std::vector<Timestamp> timestamps;
    Timestamp last = std::numeric_limits<Timestamp>::min();
    for (std::int64_t k = 0; k < ts_count; ++k) {
      RTIC_ASSIGN_OR_RETURN(Timestamp ts, r.ReadInt());
      if (ts <= last) {
        return Status::InvalidArgument(
            "checkpoint obligation timestamps not ascending");
      }
      last = ts;
      timestamps.push_back(ts);
    }
    obligations.emplace(std::move(valuation), std::move(timestamps));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in checkpoint");
  }

  obligations_ = std::move(obligations);
  domain_ = std::move(domain);
  has_prev_ = has_prev != 0;
  prev_time_ = prev_time;
  last_expired_.clear();
  scratch_.InvalidateDomain();
  return Status::OK();
}

}  // namespace rtic

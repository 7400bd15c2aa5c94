#include "xquery/path_extraction.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "projection/projection.h"
#include "projection/projector_inference.h"
#include "xpath/approximate.h"
#include "xquery/parser.h"

namespace xmlproj {
namespace {

// Rewrites $var-rooted paths into context-relative paths, recursively
// (used by the §5 heuristic: inside the pushed-down qualifier, the binding
// node *is* the context node).
void RewriteVariableToContext(Expr* expr, const std::string& variable) {
  if (expr->kind == ExprKind::kPath) {
    if (expr->path.start == PathStart::kVariable &&
        expr->path.variable == variable) {
      expr->path.start = PathStart::kContext;
      expr->path.variable.clear();
    }
    for (Step& s : expr->path.steps) {
      for (ExprPtr& p : s.predicates) {
        RewriteVariableToContext(p.get(), variable);
      }
    }
  }
  for (ExprPtr& arg : expr->args) {
    RewriteVariableToContext(arg.get(), variable);
  }
}

void CollectFreeVariables(const Expr& expr, std::set<std::string>* out) {
  if (expr.kind == ExprKind::kPath &&
      expr.path.start == PathStart::kVariable) {
    out->insert(expr.path.variable);
  }
  if (expr.kind == ExprKind::kPath) {
    for (const Step& s : expr.path.steps) {
      for (const ExprPtr& p : s.predicates) CollectFreeVariables(*p, out);
    }
  }
  for (const ExprPtr& arg : expr.args) CollectFreeVariables(*arg, out);
}

// Appends descendant-or-self::node() unless the path already ends with it.
void AppendDos(LPath* path) {
  if (!path->steps.empty()) {
    const LStep& last = path->steps.back();
    if (last.axis == Axis::kDescendantOrSelf &&
        last.test == TestKind::kNode && last.cond.empty()) {
      return;
    }
  }
  path->steps.push_back(MakeLStep(Axis::kDescendantOrSelf, TestKind::kNode));
}

LPath Concat(const LPath& prefix, const LPath& suffix) {
  LPath out = prefix;
  for (const LStep& s : suffix.steps) out.steps.push_back(s);
  return out;
}

class Extractor {
 public:
  explicit Extractor(const ExtractOptions& options) : options_(options) {}

  Result<std::vector<LPath>> Run(const XQueryExpr& query) {
    std::vector<LPath> result;
    XMLPROJ_RETURN_IF_ERROR(
        ExtractQ(query, /*m=*/1, /*add_results=*/true, &result));
    // Deduplicate the global set.
    std::sort(global_.begin(), global_.end(),
              [](const LPath& a, const LPath& b) {
                return ToString(a) < ToString(b);
              });
    global_.erase(std::unique(global_.begin(), global_.end(),
                              [](const LPath& a, const LPath& b) {
                                return ToString(a) == ToString(b);
                              }),
                  global_.end());
    return global_;
  }

 private:
  struct Binding {
    bool is_for = false;
    std::vector<LPath> paths;  // document-rooted
  };

  // All paths bound by enclosing `for` clauses ({P | (x; for P) ∈ Γ}).
  std::vector<LPath> ForPaths() const {
    std::vector<LPath> out;
    for (const auto& [name, stack] : gamma_) {
      for (const Binding& b : stack) {
        if (!b.is_for) continue;
        out.insert(out.end(), b.paths.begin(), b.paths.end());
      }
    }
    return out;
  }
  // {P | (x; -P) ∈ Γ}: for and let alike.
  std::vector<LPath> AllBindingPaths() const {
    std::vector<LPath> out;
    for (const auto& [name, stack] : gamma_) {
      for (const Binding& b : stack) {
        out.insert(out.end(), b.paths.begin(), b.paths.end());
      }
    }
    return out;
  }

  // Resolves the extras/var-conditions accumulated while approximating a
  // path into global paths.
  Status ResolveAccumulator(ApproximatedQuery* acc) {
    for (LPath& extra : acc->extra_paths) {
      global_.push_back(std::move(extra));
    }
    acc->extra_paths.clear();
    for (auto& vc : acc->var_conditions) {
      auto it = gamma_.find(vc.variable);
      if (it == gamma_.end() || it->second.empty()) {
        return InvalidError("free variable $" + vc.variable +
                            " in a predicate");
      }
      for (const LPath& base : it->second.back().paths) {
        global_.push_back(Concat(base, vc.relative));
      }
    }
    acc->var_conditions.clear();
    return Status::Ok();
  }

  // Lines 6-12: a path expression. Fills `result` with the paths denoting
  // the expression's result nodes (already pushed to global by the caller
  // when appropriate).
  Status ExtractPathExpr(const LocationPath& path, bool need_subtree,
                         std::vector<LPath>* result) {
    ApproximatedQuery acc;
    LPath spine;
    XMLPROJ_RETURN_IF_ERROR(ApproximateSteps(path.steps, &acc, &spine));
    XMLPROJ_RETURN_IF_ERROR(ResolveAccumulator(&acc));
    // Attribute values are inline: no subtree needed.
    if (!path.steps.empty() &&
        path.steps.back().axis == Axis::kAttribute) {
      need_subtree = false;
    }
    switch (path.start) {
      case PathStart::kRoot: {
        if (need_subtree) AppendDos(&spine);
        result->push_back(std::move(spine));
        return Status::Ok();
      }
      case PathStart::kVariable: {
        auto it = gamma_.find(path.variable);
        if (it == gamma_.end() || it->second.empty()) {
          return InvalidError("free variable $" + path.variable);
        }
        for (const LPath& base : it->second.back().paths) {
          LPath full = Concat(base, spine);
          if (need_subtree) AppendDos(&full);
          result->push_back(std::move(full));
        }
        return Status::Ok();
      }
      case PathStart::kContext:
        return UnsupportedError(
            "relative paths have no context at XQuery top level; root them "
            "at '/' or at a variable");
    }
    return InternalError("unreachable path start");
  }

  // E over scalar expressions (lines 2-3 and 13-14, plus the value-needed
  // strengthening documented in the header).
  Status ExtractScalar(const Expr& expr, int m, bool value_needed,
                       std::vector<LPath>* result) {
    switch (expr.kind) {
      case ExprKind::kPath:
        return ExtractPathExpr(expr.path, m == 1 || value_needed, result);
      case ExprKind::kBinary:
        switch (expr.op) {
          case BinaryOp::kOr:
          case BinaryOp::kAnd: {
            std::vector<LPath> ignored;
            XMLPROJ_RETURN_IF_ERROR(
                ExtractScalar(*expr.args[0], 0, false, &ignored));
            XMLPROJ_RETURN_IF_ERROR(
                ExtractScalar(*expr.args[1], 0, false, &ignored));
            for (LPath& p : ignored) global_.push_back(std::move(p));
            return Status::Ok();
          }
          case BinaryOp::kUnion:
            XMLPROJ_RETURN_IF_ERROR(
                ExtractScalar(*expr.args[0], m, value_needed, result));
            return ExtractScalar(*expr.args[1], m, value_needed, result);
          default: {
            // Comparison or arithmetic: operand values are consumed.
            std::vector<LPath> operands;
            XMLPROJ_RETURN_IF_ERROR(
                ExtractScalar(*expr.args[0], 0, true, &operands));
            XMLPROJ_RETURN_IF_ERROR(
                ExtractScalar(*expr.args[1], 0, true, &operands));
            for (LPath& p : operands) global_.push_back(std::move(p));
            return Status::Ok();
          }
        }
      case ExprKind::kNegate: {
        std::vector<LPath> operands;
        XMLPROJ_RETURN_IF_ERROR(
            ExtractScalar(*expr.args[0], 0, true, &operands));
        for (LPath& p : operands) global_.push_back(std::move(p));
        return Status::Ok();
      }
      case ExprKind::kFunction: {
        // Line 14: argument paths suffixed per the F table.
        for (size_t i = 0; i < expr.args.size(); ++i) {
          std::vector<LPath> arg_paths;
          XMLPROJ_RETURN_IF_ERROR(ExtractScalar(
              *expr.args[i], 0, FunctionNeedsSubtree(expr.function, i),
              &arg_paths));
          for (LPath& p : arg_paths) global_.push_back(std::move(p));
        }
        return Status::Ok();
      }
      case ExprKind::kLiteral:
      case ExprKind::kNumber:
        // Line 2: a materialized base value depends on the enclosing
        // iteration.
        if (m == 1) {
          for (LPath& p : ForPaths()) global_.push_back(std::move(p));
        }
        return Status::Ok();
    }
    return InternalError("unreachable expression kind");
  }

  // The §5 heuristic: extracts from `cond` (whose only free variable is
  // `variable`) the disjunction of simple paths qualifying the binding.
  // Returns false (leaving *conds untouched) if the heuristic does not
  // apply.
  Result<bool> ConditionQualifier(const Expr& cond,
                                  const std::string& variable,
                                  std::vector<LPath>* conds) {
    std::set<std::string> free;
    CollectFreeVariables(cond, &free);
    free.erase(variable);
    if (!free.empty()) return false;  // a join: cannot qualify
    // Inside the qualifier, the binding node is the context node: rewrite
    // $x-rooted paths to relative ones so they participate in the
    // restriction (instead of being reported as opaque var-conditions).
    ExprPtr rewritten = CloneExpr(cond);
    RewriteVariableToContext(rewritten.get(), variable);
    ApproximatedQuery acc;
    auto paths = ExtractConditionPaths(*rewritten, &acc);
    if (!paths.ok()) return paths.status();
    for (LPath& extra : acc.extra_paths) global_.push_back(std::move(extra));
    if (!acc.var_conditions.empty()) {
      return InternalError("unexpected free variable after check");
    }
    for (LPath& p : *paths) conds->push_back(std::move(p));
    return true;
  }

  Status ExtractQ(const XQueryExpr& q, int m, bool add_results,
                  std::vector<LPath>* result) {
    switch (q.kind) {
      case XQueryKind::kEmpty:
      case XQueryKind::kText:
        return Status::Ok();
      case XQueryKind::kScalar: {
        std::vector<LPath> paths;
        XMLPROJ_RETURN_IF_ERROR(ExtractScalar(*q.scalar, m, false, &paths));
        if (add_results) {
          for (const LPath& p : paths) global_.push_back(p);
        }
        result->insert(result->end(),
                       std::make_move_iterator(paths.begin()),
                       std::make_move_iterator(paths.end()));
        return Status::Ok();
      }
      case XQueryKind::kSequence:
        for (const XQueryPtr& item : q.items) {
          XMLPROJ_RETURN_IF_ERROR(ExtractQ(*item, m, add_results, result));
        }
        return Status::Ok();
      case XQueryKind::kElement: {
        // Line 5: constructing output depends on the enclosing iteration.
        for (LPath& p : ForPaths()) global_.push_back(std::move(p));
        for (const ConstructedAttr& attr : q.attributes) {
          for (const AttrValuePart& part : attr.parts) {
            if (part.expr == nullptr) continue;
            std::vector<LPath> paths;
            XMLPROJ_RETURN_IF_ERROR(
                ExtractScalar(*part.expr, 0, true, &paths));
            for (LPath& p : paths) global_.push_back(std::move(p));
          }
        }
        if (q.content != nullptr) {
          std::vector<LPath> ignored;
          XMLPROJ_RETURN_IF_ERROR(ExtractQ(*q.content, 1, true, &ignored));
        }
        return Status::Ok();
      }
      case XQueryKind::kIf: {
        // Line 15.
        std::vector<LPath> ignored;
        XMLPROJ_RETURN_IF_ERROR(ExtractQ(*q.condition, 0, true, &ignored));
        XMLPROJ_RETURN_IF_ERROR(
            ExtractQ(*q.then_branch, 1, add_results, result));
        if (q.else_branch != nullptr) {
          XMLPROJ_RETURN_IF_ERROR(
              ExtractQ(*q.else_branch, 1, add_results, result));
        }
        for (LPath& p : AllBindingPaths()) global_.push_back(std::move(p));
        return Status::Ok();
      }
      case XQueryKind::kSome:
      case XQueryKind::kEvery: {
        // Quantifiers behave like a for whose body is consumed as a
        // boolean (m=0). For `some`, binding nodes that can never satisfy
        // the condition are irrelevant to the existential, so the §5
        // qualifier applies; for `every`, failing nodes *determine* the
        // answer and must be kept.
        std::vector<LPath> binding_paths;
        XMLPROJ_RETURN_IF_ERROR(
            ExtractQ(*q.binding, 0, /*add_results=*/false, &binding_paths));
        if (q.kind == XQueryKind::kSome &&
            options_.enable_for_if_heuristic &&
            q.body->kind == XQueryKind::kScalar) {
          std::vector<LPath> qualifier;
          XMLPROJ_ASSIGN_OR_RETURN(
              bool applies,
              ConditionQualifier(*q.body->scalar, q.variable, &qualifier));
          if (applies && !qualifier.empty()) {
            for (LPath& p : binding_paths) {
              if (p.steps.empty()) continue;
              for (const LPath& c : qualifier) {
                p.steps.back().cond.push_back(c);
              }
            }
          }
        }
        for (const LPath& p : binding_paths) global_.push_back(p);
        gamma_[q.variable].push_back(
            Binding{/*is_for=*/true, std::move(binding_paths)});
        std::vector<LPath> ignored;
        Status status = ExtractQ(*q.body, 0, true, &ignored);
        auto it = gamma_.find(q.variable);
        it->second.pop_back();
        if (it->second.empty()) gamma_.erase(it);
        return status;
      }
      case XQueryKind::kLet:
      case XQueryKind::kFor: {
        // Lines 16-17 plus the §5 heuristic.
        std::vector<LPath> binding_paths;
        XMLPROJ_RETURN_IF_ERROR(
            ExtractQ(*q.binding, 0, /*add_results=*/false, &binding_paths));

        const bool is_for = q.kind == XQueryKind::kFor;
        if (is_for) {
          // Candidate condition: a scalar `where`, or a body of the form
          // `if (C) then q' else ()`.
          const Expr* cond = nullptr;
          if (q.where != nullptr && q.where->kind == XQueryKind::kScalar) {
            cond = q.where->scalar.get();
          } else if (q.where == nullptr &&
                     q.body->kind == XQueryKind::kIf &&
                     q.body->condition->kind == XQueryKind::kScalar &&
                     (q.body->else_branch == nullptr ||
                      q.body->else_branch->kind == XQueryKind::kEmpty)) {
            cond = q.body->condition->scalar.get();
          }
          if (cond != nullptr && options_.enable_for_if_heuristic) {
            std::vector<LPath> qualifier;
            XMLPROJ_ASSIGN_OR_RETURN(
                bool applies, ConditionQualifier(*cond, q.variable,
                                                 &qualifier));
            if (applies && !qualifier.empty()) {
              for (LPath& p : binding_paths) {
                if (p.steps.empty()) continue;
                for (const LPath& c : qualifier) {
                  p.steps.back().cond.push_back(c);
                }
              }
            }
          }
        }

        for (const LPath& p : binding_paths) global_.push_back(p);
        gamma_[q.variable].push_back(
            Binding{is_for, std::move(binding_paths)});

        Status status = Status::Ok();
        if (q.where != nullptr) {
          std::vector<LPath> ignored;
          status = ExtractQ(*q.where, 0, true, &ignored);
          if (status.ok()) {
            for (LPath& p : AllBindingPaths()) {
              global_.push_back(std::move(p));
            }
          }
        }
        if (status.ok() && q.order_key != nullptr) {
          std::vector<LPath> key_paths;
          status = ExtractScalar(*q.order_key, 0, true, &key_paths);
          for (LPath& p : key_paths) global_.push_back(std::move(p));
        }
        if (status.ok()) {
          status = ExtractQ(*q.body, m, add_results, result);
        }

        auto it = gamma_.find(q.variable);
        it->second.pop_back();
        if (it->second.empty()) gamma_.erase(it);
        return status;
      }
    }
    return InternalError("unreachable query kind");
  }

  ExtractOptions options_;
  std::map<std::string, std::vector<Binding>> gamma_;
  std::vector<LPath> global_;
};

}  // namespace

Result<std::vector<LPath>> ExtractPaths(const XQueryExpr& query) {
  return ExtractPaths(query, ExtractOptions());
}

Result<std::vector<LPath>> ExtractPaths(const XQueryExpr& query,
                                        const ExtractOptions& options) {
  Extractor extractor(options);
  return extractor.Run(query);
}

Result<NameSet> InferProjectorForQuery(const Dtd& dtd,
                                       const XQueryExpr& query) {
  XMLPROJ_ASSIGN_OR_RETURN(std::vector<LPath> paths, ExtractPaths(query));
  ProjectorInference inference(dtd);
  return inference.InferForPaths(paths, /*materialize_result=*/false,
                                 /*start_at_document_node=*/true);
}

Result<NameSet> InferQueryProjector(const Dtd& dtd, QueryLanguage language,
                                    std::string_view text) {
  if (language == QueryLanguage::kXQuery) {
    XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr parsed, ParseXQuery(text));
    return InferProjectorForQuery(dtd, *parsed);
  }
  XMLPROJ_ASSIGN_OR_RETURN(
      ProjectionAnalysis analysis,
      AnalyzeXPathQuery(dtd, text, /*materialize_result=*/true));
  return analysis.projector;
}

}  // namespace xmlproj

// XQuery path extraction — the function E of Figure 3 (paper §5).
//
// E(q, Γ, m) walks the FLWR query q with an environment Γ of variable
// bindings ((x; for P) / (x; let P)) and a materialization flag m, and
// produces the set of XPath^ℓ paths describing q's data needs. All
// returned paths are document-rooted; the projector for q is the union of
// the projectors of the extracted paths (projectors are closed by union).
//
// Deviations from the figure, both strengthening soundness:
//  - value-consuming operators (comparisons, arithmetic) and functions
//    (per the F table of §3.3) suffix their path operands with
//    descendant-or-self::node() / self::node() exactly as predicates do in
//    §3.3 — the figure's plain union would prune the text below compared
//    elements;
//  - attribute-valued operands skip the suffix (attributes live inline on
//    their element).
//
// The §5 heuristic is applied on the fly: for a clause
//     for x in Q (where C(x))? return (if C(x) then q else ())? q
// whose condition refers only to x and contains no other variables, the
// extracted binding paths receive the qualifier [or(P(C))], which lets the
// projector drop binding nodes that can never satisfy the condition
// instead of degenerating when Q ends in descendant-or-self::node().

#ifndef XMLPROJ_XQUERY_PATH_EXTRACTION_H_
#define XMLPROJ_XQUERY_PATH_EXTRACTION_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "dtd/dtd.h"
#include "dtd/name_set.h"
#include "xpath/xpathl.h"
#include "xquery/ast.h"

namespace xmlproj {

struct ExtractOptions {
  // The §5 for/if rewriting heuristic. Disabled only by the ablation
  // benchmark (bench/bench_ablation.cc) to quantify its effect.
  bool enable_for_if_heuristic = true;
};

// E(q, ∅, 1): the data-need paths of a closed query.
Result<std::vector<LPath>> ExtractPaths(const XQueryExpr& query);
Result<std::vector<LPath>> ExtractPaths(const XQueryExpr& query,
                                        const ExtractOptions& options);

// Convenience: extraction + projector inference (union over all extracted
// paths, document-rooted, no extra materialization — the m-flag already
// inserted the descendant-or-self steps).
Result<NameSet> InferProjectorForQuery(const Dtd& dtd,
                                       const XQueryExpr& query);

enum class QueryLanguage { kXPath, kXQuery };

// The projector of one query over `dtd`, in either language: an XPath
// query through AnalyzeXPathQuery with its result materialized (a query's
// answer is serialized), an XQuery query through ParseXQuery and
// InferProjectorForQuery. The service's workload compiler and the XMark
// workbench both compile queries through this one function, so xmlprojd
// and parallel_prune_tool prune a query to the same bytes.
Result<NameSet> InferQueryProjector(const Dtd& dtd, QueryLanguage language,
                                    std::string_view text);

}  // namespace xmlproj

#endif  // XMLPROJ_XQUERY_PATH_EXTRACTION_H_

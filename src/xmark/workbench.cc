#include "xmark/workbench.h"

#include <chrono>

#include "common/memory_meter.h"
#include "xml/serializer.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xquery/path_extraction.h"

namespace xmlproj {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<QueryRun> RunBenchmarkQuery(const BenchmarkQuery& query,
                                   const Document& doc) {
  QueryRun run;
  MemoryMeter meter;
  meter.AddBaseline(doc.MemoryBytes());
  double start = NowSeconds();
  if (query.language == QueryLanguage::kXQuery) {
    XMLPROJ_ASSIGN_OR_RETURN(XQueryPtr parsed, ParseXQuery(query.text));
    XQueryEvaluator eval(doc, &meter);
    XMLPROJ_ASSIGN_OR_RETURN(Sequence result, eval.Evaluate(*parsed));
    run.result_items = result.size();
    run.serialized = eval.Serialize(result);
  } else {
    XMLPROJ_ASSIGN_OR_RETURN(LocationPath path, ParseXPath(query.text));
    XPathEvaluator::Options options;
    options.meter = &meter;
    XPathEvaluator eval(doc, std::move(options));
    XMLPROJ_ASSIGN_OR_RETURN(NodeList result, eval.EvaluateFromRoot(path));
    run.result_items = result.size();
    std::string out;
    for (const XNode& n : result) {
      if (n.attr >= 0) {
        const Attribute& a = doc.attr(n.node, static_cast<uint32_t>(n.attr));
        out += doc.symbols().NameOf(a.name);
        out += "=\"";
        AppendEscaped(a.value, /*for_attribute=*/true, &out);
        out += "\"";
      } else {
        out += SerializeSubtree(doc, n.node);
      }
    }
    meter.Add(out.capacity());
    run.serialized = std::move(out);
  }
  run.seconds = NowSeconds() - start;
  run.memory_bytes = meter.peak();
  return run;
}

Result<NameSet> AnalyzeBenchmarkQuery(const BenchmarkQuery& query,
                                      const Dtd& dtd) {
  return InferQueryProjector(dtd, query.language, query.text);
}

}  // namespace xmlproj

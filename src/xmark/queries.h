// The benchmark query suites used in the paper's §6 evaluation:
//   - QM01..QM20: the twenty XMark queries [17] (XQuery), transcribed into
//     the FLWR-core dialect of this library (user-defined functions and
//     `some ... satisfies` are rephrased with equivalent FLWR shapes; the
//     navigational structure — what the projector sees — is preserved).
//   - QP01..QP23: an XPathMark-style suite [12] over the same data,
//     covering every XPath axis (including the backward and horizontal
//     ones), nested predicates, boolean connectives, functions and
//     position predicates. QP09/QP11 are the sibling-axis queries the
//     paper's §4.3 cites (pruned to 7.5%).

#ifndef XMLPROJ_XMARK_QUERIES_H_
#define XMLPROJ_XMARK_QUERIES_H_

#include <string>
#include <vector>

#include "xquery/path_extraction.h"  // QueryLanguage

namespace xmlproj {

struct BenchmarkQuery {
  std::string id;          // "QM01", "QP13", ...
  QueryLanguage language;
  std::string text;
  // What the paper's discussion predicts about this query's selectivity,
  // for EXPERIMENTS.md cross-referencing.
  std::string note;
};

// The XMark XQuery suite.
const std::vector<BenchmarkQuery>& XMarkQueries();

// The XPathMark-style XPath suite.
const std::vector<BenchmarkQuery>& XPathMarkQueries();

// Both suites, QM first.
std::vector<BenchmarkQuery> AllBenchmarkQueries();

}  // namespace xmlproj

#endif  // XMLPROJ_XMARK_QUERIES_H_

// Prune-while-parsing: the paper's "no overhead" deployment (§1.2, §6).
//
// The StreamingPruner is a SAX filter with O(depth) state — "a single
// bufferless one-pass traversal". Composed with the parser it prunes the
// document as it is read, so the unprojected DOM never exists in memory,
// and the subtrees it rejects (and the content of the kept elements none
// of whose children it keeps) are crossed without being tokenized;
// composed with a serializer it acts as an external pruning tool (file in,
// smaller file out).
//
// Run: ./build/examples/streaming_prune

#include <cstdio>

#include "projection/projection.h"
#include "projection/pruner.h"
#include "xmark/generator.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"

int main() {
  using namespace xmlproj;

  auto dtd = LoadXMarkDtd();
  XMarkOptions options;
  options.scale = 0.01;
  std::string xml_text = GenerateXMarkText(options);
  std::printf("input document: %.2f KB of XML text\n",
              xml_text.size() / 1024.0);

  const char* query = "/site/people/person[address/city]/name";
  auto analysis = AnalyzeXPathQuery(*dtd, query);
  if (!analysis.ok()) {
    std::fprintf(stderr, "%s\n", analysis.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n", query);

  // Deployment 1: external tool — stream text in, pruned text out.
  // Parser -> StreamingPruner -> SerializingHandler. No DOM at all.
  {
    std::string pruned_text;
    SerializingHandler out(&pruned_text);
    StreamingPruner pruner(*dtd, analysis->projector, &out);
    Status status = ParseXmlStream(xml_text, &pruner);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf(
        "file-to-file pruning: %.2f KB -> %.2f KB (%.1f%%), kept %zu of "
        "%zu nodes, peak state = open-element stack only\n",
        xml_text.size() / 1024.0, pruned_text.size() / 1024.0,
        100.0 * pruned_text.size() / xml_text.size(),
        pruner.stats().kept_nodes, pruner.stats().input_nodes);
  }

  // Deployment 2: query-engine loader — parse-and-prune into a DOM the
  // engine then queries (the unpruned document is never materialized).
  {
    PruneStats stats;
    auto pruned_doc = ParseAndPrune(xml_text, *dtd, analysis->projector,
                                    &stats);
    if (!pruned_doc.ok()) {
      std::fprintf(stderr, "%s\n",
                   pruned_doc.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "loader pruning: pruned DOM is %.2f KB in memory (%zu nodes); "
        "%.2f KB of dropped content was crossed without being "
        "tokenized\n",
        pruned_doc->MemoryBytes() / 1024.0,
        pruned_doc->content_node_count(), stats.skipped_bytes / 1024.0);
  }
  return 0;
}

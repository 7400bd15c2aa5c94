// Splice-vs-reserialize byte identity: the zero-copy splicing sink
// (xml/splice.h) must produce exactly the bytes the event-by-event
// XmlWriter path produces, for every pruner, projector, and input shape
// — including the non-canonical markup (entities, CDATA, quote styles,
// end-tag whitespace) that forces its per-event fallback, and the
// budgeted / fault-injected pipeline configurations.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "dtd/dtd_parser.h"
#include "projection/pipeline.h"
#include "projection/projection.h"
#include "projection/pruner.h"
#include "random_xml.h"
#include "xmark/corpus.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/splice.h"

namespace xmlproj {
namespace {

using testing_random::DocGenerator;
using testing_random::RandomDtd;

const Dtd& XmarkDtd() {
  static const Dtd* dtd = new Dtd(std::move(LoadXMarkDtd()).value());
  return *dtd;
}

// The two sinks under comparison, behind one fused prune pass each.
std::string WriterPrune(std::string_view xml, const Dtd& dtd,
                        const NameSet& projector, bool validate,
                        Status* status_out = nullptr) {
  std::string out;
  SerializingHandler sink(&out);
  Status status;
  if (validate) {
    ValidatingPruner pruner(dtd, projector, &sink);
    status = ParseXmlStream(xml, &pruner);
  } else {
    StreamingPruner pruner(dtd, projector, &sink);
    status = ParseXmlStream(xml, &pruner);
  }
  if (status_out != nullptr) *status_out = status;
  return out;
}

std::string SplicePrune(std::string_view xml, const Dtd& dtd,
                        const NameSet& projector, bool validate,
                        Status* status_out = nullptr) {
  std::string out;
  SplicingSerializingHandler sink(xml, &out);
  Status status;
  if (validate) {
    ValidatingPruner pruner(dtd, projector, &sink);
    status = ParseXmlStream(xml, &pruner);
  } else {
    StreamingPruner pruner(dtd, projector, &sink);
    status = ParseXmlStream(xml, &pruner);
  }
  sink.Finish();
  if (status_out != nullptr) *status_out = status;
  return out;
}

TEST(SpliceIdentityTest, XMarkCorpusAcrossWorkloadProjectors) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 4;
  corpus_options.scale = 0.0005;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  std::vector<NameSet> projectors;
  projectors.push_back(XmarkDtd().AllNames());
  auto dashboard = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(dashboard.ok());
  projectors.push_back(*dashboard);
  for (const std::string& doc : corpus) {
    for (const NameSet& projector : projectors) {
      for (bool validate : {false, true}) {
        EXPECT_EQ(SplicePrune(doc, XmarkDtd(), projector, validate),
                  WriterPrune(doc, XmarkDtd(), projector, validate))
            << "validate=" << validate;
      }
    }
  }
}

TEST(SpliceIdentityTest, RandomGrammarsAndSubsetProjectors) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    DocGenerator gen(dtd, seed * 17 + 3);
    auto doc = gen.Generate();
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    std::string xml = SerializeDocument(*doc);
    NameSet all = dtd.AllNames();
    // A thinned projector exercises splice-gap handling (dropped
    // subtrees split the kept ranges); keep even names plus the root.
    NameSet thinned(dtd.name_count());
    all.ForEach([&](NameId n) {
      if (n % 2 == 0) thinned.Add(n);
    });
    thinned.Add(dtd.root());
    for (const NameSet* projector : {&all, &thinned}) {
      for (bool validate : {false, true}) {
        Status writer_status;
        Status splice_status;
        std::string expected =
            WriterPrune(xml, dtd, *projector, validate, &writer_status);
        std::string actual =
            SplicePrune(xml, dtd, *projector, validate, &splice_status);
        EXPECT_EQ(splice_status.code(), writer_status.code())
            << "seed " << seed << " validate " << validate;
        if (writer_status.ok()) {
          EXPECT_EQ(actual, expected)
              << "seed " << seed << " validate " << validate;
        }
      }
    }
  }
}

// Hand-built markup hitting every canonicality escape hatch: the splice
// sink must fall back (not corrupt) and still match the writer bytes.
TEST(SpliceIdentityTest, NonCanonicalMarkupFallsBackByteIdentically) {
  constexpr char kDtdText[] = R"(
    <!ELEMENT r (a | b)*>
    <!ELEMENT a (#PCDATA | b)*>
    <!ELEMENT b EMPTY>
    <!ATTLIST a x CDATA #IMPLIED y CDATA #IMPLIED>
    <!ATTLIST r id CDATA #IMPLIED note CDATA #IMPLIED>
  )";
  Dtd dtd = std::move(ParseDtd(kDtdText, "r")).value();
  NameSet projector = dtd.AllNames();
  const char* cases[] = {
      // Entity references in text: raw bytes differ from decoded text.
      "<r><a>one &amp; two &lt;three&gt;</a></r>",
      // Entity references in attribute values.
      "<r><a x=\"a&amp;b\" y=\"q&quot;q\">t</a></r>",
      // Single-quoted attributes (writer re-emits double-quoted).
      "<r><a x='single'>t</a></r>",
      // Raw '>' in text and attribute values (writer escapes it).
      "<r><a x=\"1>2\">3>4</a></r>",
      // CDATA sections, alone and glued to plain runs.
      "<r><a><![CDATA[<not & markup>]]></a></r>",
      "<r><a>pre<![CDATA[mid]]>post</a></r>",
      "<r><a><![CDATA[]]></a></r>",
      // End-tag whitespace (parser accepts, writer never emits).
      "<r><a>t</a ></r >",
      // Start-tag whitespace oddities.
      "<r><a  x=\"1\">t</a></r>",
      "<r><a x = \"1\">t</a></r>",
      "<r><a x=\"1\" >t</a></r>",
      // Self-closing vs. childless: both serialize as <b/>.
      "<r><b/><b></b><b />&#32;</r>",
      // Comments and PIs interleaved with text runs.
      "<r><a>one<!-- c -->two<?pi data?>three</a></r>",
      // Character references, including whitespace-only decoded text.
      "<r><a>&#x48;&#105;</a><a> &#9; </a></r>",
      // Deeply spliced: pruned siblings cut the kept span repeatedly.
      "<r><a>k</a><b/><a>k</a><b/><a>k</a></r>",
      // Root attributes with references and mixed quote styles.
      "<r id=\"x&amp;y\" note='a &lt; b'><a/><b/><a/></r>",
  };
  for (const char* xml : cases) {
    for (bool validate : {false, true}) {
      Status writer_status;
      Status splice_status;
      std::string expected =
          WriterPrune(xml, dtd, projector, validate, &writer_status);
      std::string actual =
          SplicePrune(xml, dtd, projector, validate, &splice_status);
      ASSERT_TRUE(writer_status.ok())
          << xml << ": " << writer_status.ToString();
      ASSERT_TRUE(splice_status.ok())
          << xml << ": " << splice_status.ToString();
      EXPECT_EQ(actual, expected) << xml << " validate=" << validate;
    }
  }
  // Same cases with a thinned projector (drop 'b'): gaps at every cut.
  NameSet no_b(dtd.name_count());
  projector.ForEach([&](NameId n) {
    if (dtd.production(n).tag != "b") no_b.Add(n);
  });
  for (const char* xml : cases) {
    EXPECT_EQ(SplicePrune(xml, dtd, no_b, false),
              WriterPrune(xml, dtd, no_b, false))
        << xml;
  }
  // A root-only projector drops every child: the root closes as `<r/>`.
  NameSet root_only(dtd.name_count());
  root_only.Add(dtd.root());
  const char* children = "<r><a>one</a><a>two</a></r>";
  for (bool validate : {false, true}) {
    EXPECT_EQ(SplicePrune(children, dtd, root_only, validate), "<r/>")
        << "validate=" << validate;
    EXPECT_EQ(WriterPrune(children, dtd, root_only, validate), "<r/>")
        << "validate=" << validate;
  }
}

// Without a locator (DOM replay) every event falls back; output must
// equal the document serialization.
TEST(SpliceIdentityTest, NoLocatorReplayMatchesSerializeDocument) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 1;
  corpus_options.scale = 0.0005;
  std::string xml = GenerateXMarkCorpus(corpus_options)[0];
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  std::string out;
  SplicingSerializingHandler sink(xml, &out);
  ASSERT_TRUE(ReplayAsSax(*doc, &sink).ok());
  sink.Finish();
  EXPECT_EQ(out, SerializeDocument(*doc));
}

// The pipeline matrix: validate x error policy, with budgets in the mix,
// must stay byte-identical to the sequential writer reference for every
// document.
TEST(SpliceIdentityTest, BudgetedPipelineMatrix) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 3;
  corpus_options.scale = 0.001;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  auto projector = WorkloadProjector(XmarkDtd(), XMarkDashboardWorkload());
  ASSERT_TRUE(projector.ok());

  for (bool validate : {false, true}) {
    std::vector<std::string> expected;
    for (const std::string& doc : corpus) {
      expected.push_back(
          WriterPrune(doc, XmarkDtd(), *projector, validate));
    }
    for (ErrorPolicy policy : {ErrorPolicy::kFailFast, ErrorPolicy::kIsolate}) {
      PipelineOptions options;
      options.num_threads = 2;
      options.validate = validate;
      options.policy = policy;
      options.budget.max_bytes = 64u << 20;  // generous: guard active
      auto run = PruneCorpus(corpus, XmarkDtd(), *projector, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(run->failures.empty());
      for (size_t i = 0; i < corpus.size(); ++i) {
        EXPECT_EQ(run->results[i].output, expected[i])
            << "doc " << i << " validate " << validate << " policy "
            << static_cast<int>(policy);
      }
    }
  }
}

// Chaos slice: injected prune faults under kIsolate must not perturb the
// bytes of surviving documents.
TEST(SpliceIdentityTest, SurvivorsUnderFaultInjectionMatchReference) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 6;
  corpus_options.scale = 0.0003;
  std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  NameSet projector = XmarkDtd().AllNames();

  FaultInjector fault(11);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.probability = 0.25;
  fault.Arm("prune.element", spec);
  PipelineOptions options;
  options.num_threads = 2;
  options.policy = ErrorPolicy::kIsolate;
  options.fault = &fault;
  auto run = PruneCorpus(corpus, XmarkDtd(), projector, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<bool> failed(corpus.size(), false);
  for (const TaskFailure& f : run->failures) failed[f.task] = true;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (failed[i]) continue;
    EXPECT_EQ(run->results[i].output,
              WriterPrune(corpus[i], XmarkDtd(), projector, false))
        << "survivor " << i;
  }
}

}  // namespace
}  // namespace xmlproj

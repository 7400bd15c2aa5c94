// Shared passes (projection/pipeline.h): PruneCorpusPerQuery runs a
// document's tasks as one parse whose head, the projector tee, feeds
// every task's chain, and the parser skips only what every task drops.
// It does so only without a budget and while the largest document's
// shared pass fits in one worker's share of the work (3 × largest ×
// workers <= 4 × corpus bytes); elsewhere each task runs a pass of its
// own.
//
// The differential oracle: every (document, query) of a per-query run
// equals a one-task run of the same pair and options — the output bytes,
// all five PruneStats fields, the memory peak, the degraded flag and, for
// a failure, its stage, code and message — at 1 and 4 threads. The stats
// are the sharp edge: a branch must count its own skips, not the
// parser's, which skips only the union of what the branches drop.

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dtd/dtd_parser.h"
#include "projection/pipeline.h"
#include "random_xml.h"
#include "xmark/corpus.h"
#include "xmark/queries.h"
#include "xmark/xmark_dtd.h"
#include "xml/serializer.h"

namespace xmlproj {
namespace {

using testing_random::DocGenerator;
using testing_random::RandomDtd;

const Dtd& XmarkDtd() {
  static const Dtd* dtd = new Dtd(std::move(LoadXMarkDtd()).value());
  return *dtd;
}

std::string XmarkDoc(double scale) {
  XMarkCorpusOptions options;
  options.documents = 1;
  options.scale = scale;
  return GenerateXMarkCorpus(options)[0];
}

// One task's outcome, read off a kIsolate run.
struct Reading {
  Status status;
  std::string stage;
  std::string output;
  PruneStats stats;
  size_t peak = 0;
  bool degraded = false;
};

Reading ReadTask(const PipelineRun& run, size_t task) {
  Reading reading;
  for (const TaskFailure& failure : run.failures) {
    if (failure.task != task) continue;
    reading.status = failure.status;
    reading.stage = failure.stage;
    reading.peak = failure.peak_bytes;
    return reading;
  }
  const PipelineResult& result = run.results[task];
  reading.output = result.output;
  reading.stats = result.stats;
  reading.peak = result.peak_bytes;
  reading.degraded = result.degraded;
  return reading;
}

void ExpectSameReading(const Reading& shared, const Reading& alone) {
  EXPECT_EQ(shared.status.code(), alone.status.code());
  EXPECT_EQ(shared.status.message(), alone.status.message());
  EXPECT_EQ(shared.stage, alone.stage);
  EXPECT_EQ(shared.output, alone.output);
  EXPECT_EQ(shared.stats.input_nodes, alone.stats.input_nodes);
  EXPECT_EQ(shared.stats.kept_nodes, alone.stats.kept_nodes);
  EXPECT_EQ(shared.stats.input_text_bytes, alone.stats.input_text_bytes);
  EXPECT_EQ(shared.stats.kept_text_bytes, alone.stats.kept_text_bytes);
  EXPECT_EQ(shared.stats.skipped_bytes, alone.stats.skipped_bytes);
  EXPECT_EQ(shared.peak, alone.peak);
  EXPECT_EQ(shared.degraded, alone.degraded);
}

// The pair alone: a one-task run with the same options.
Reading Alone(const std::string& doc, const Dtd& dtd,
              const NameSet& projector, PipelineOptions options) {
  options.policy = ErrorPolicy::kIsolate;
  options.num_threads = 1;
  auto run = PruneCorpus(std::span(&doc, 1), dtd, projector, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? ReadTask(*run, 0) : Reading{};
}

// Every task of a per-query run, at 1 and 4 threads, against its pair
// alone. At 4 threads the run prunes copies of the corpus until it has
// enough bytes per worker to share passes there too. Returns the alone
// readings, task-indexed, for callers that pin what they must show.
std::vector<Reading> ExpectSharedMatchesAlone(
    std::span<const std::string> corpus, const Dtd& dtd,
    std::span<const NameSet> projectors, PipelineOptions options,
    const std::string& label) {
  SCOPED_TRACE(label);
  std::vector<Reading> alone;
  for (const std::string& doc : corpus) {
    for (const NameSet& projector : projectors) {
      alone.push_back(Alone(doc, dtd, projector, options));
    }
  }
  options.policy = ErrorPolicy::kIsolate;
  for (size_t threads : {1, 4}) {
    std::vector<std::string> copies;
    size_t largest = 0;
    size_t bytes = 0;
    while (copies.size() < corpus.size() || 3 * largest * threads > 4 * bytes) {
      copies.push_back(corpus[copies.size() % corpus.size()]);
      largest = std::max(largest, copies.back().size());
      bytes += copies.back().size();
    }
    options.num_threads = static_cast<int>(threads);
    auto run = PruneCorpusPerQuery(copies, dtd, projectors, options);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    if (!run.ok()) continue;
    const size_t tasks = copies.size() * projectors.size();
    EXPECT_EQ(run->results.size(), tasks);
    EXPECT_EQ(run->summary.tasks + run->summary.failed, tasks);
    for (size_t i = 0; i < tasks; ++i) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " document " +
                   std::to_string(i / projectors.size()) + " query " +
                   std::to_string(i % projectors.size()));
      ExpectSameReading(ReadTask(*run, i), alone[i % alone.size()]);
    }
  }
  return alone;
}

std::vector<NameSet> DashboardProjectors() {
  auto projectors = WorkloadProjectors(XmarkDtd(), XMarkDashboardWorkload());
  EXPECT_TRUE(projectors.ok()) << projectors.status().ToString();
  return std::move(projectors).value();
}

// Every XMark and XPathMark query, one projector each.
std::vector<NameSet> EveryQueryProjectors() {
  std::vector<NameSet> out;
  for (const BenchmarkQuery& query : AllBenchmarkQueries()) {
    auto projector = WorkloadProjector(XmarkDtd(), std::span(&query, 1));
    EXPECT_TRUE(projector.ok()) << projector.status().ToString();
    out.push_back(std::move(projector).value());
  }
  return out;
}

TEST(SharedPassTest, XMarkDashboardAndEveryQuery) {
  const std::vector<NameSet> dashboard = DashboardProjectors();
  const std::vector<NameSet> every = EveryQueryProjectors();
  ASSERT_GE(every.size(), 40u);
  for (double scale : {0.001, 0.01}) {
    const std::vector<std::string> corpus = {XmarkDoc(scale)};
    for (bool validate : {false, true}) {
      PipelineOptions options;
      options.validate = validate;
      const std::string label = "scale " + std::to_string(scale) +
                                (validate ? " validate" : " prune");
      ExpectSharedMatchesAlone(corpus, XmarkDtd(), dashboard, options,
                               label + " dashboard");
      ExpectSharedMatchesAlone(corpus, XmarkDtd(), every, options,
                               label + " every query");
    }
  }
}

// Start tags one run's parses meet, counted by a count-only "xml.parse"
// failpoint, which fires at every start tag whatever the projector skips;
// and the run's "pipeline.task" hits.
struct ParseCount {
  uint64_t start_tags = 0;
  uint64_t task_hits = 0;
};

ParseCount CountParses(std::span<const std::string> corpus,
                       std::span<const NameSet> projectors,
                       PipelineOptions options) {
  FaultSpec count_only;
  count_only.max_fires = 0;
  FaultInjector fault;
  fault.Arm("xml.parse", count_only);
  fault.Arm("pipeline.task", count_only);
  options.fault = &fault;
  auto run = projectors.size() == 1
                 ? PruneCorpus(corpus, XmarkDtd(), projectors[0], options)
                 : PruneCorpusPerQuery(corpus, XmarkDtd(), projectors, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return {fault.HitCount("xml.parse"), fault.HitCount("pipeline.task")};
}

// The point of the unit: one parse per document however many projectors
// prune it.
TEST(SharedPassTest, OneParsePerDocument) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 3;
  corpus_options.scale = 0.001;
  const std::vector<std::string> corpus = GenerateXMarkCorpus(corpus_options);
  const std::vector<NameSet> dashboard = DashboardProjectors();
  for (bool validate : {false, true}) {
    SCOPED_TRACE(validate ? "validate" : "prune");
    PipelineOptions options;
    options.num_threads = 2;
    options.validate = validate;
    const ParseCount one = CountParses(corpus, std::span(dashboard).first(1),
                                       options);
    const ParseCount shared = CountParses(corpus, dashboard, options);
    EXPECT_GT(one.start_tags, 0u);
    EXPECT_EQ(shared.start_tags, one.start_tags);
    EXPECT_EQ(one.task_hits, corpus.size());
    EXPECT_EQ(shared.task_hits, corpus.size() * dashboard.size());
  }
}

// Where sharing does not pay, each task parses its document alone, and
// each still gets its own pass's outcome: under a byte cap or a deadline,
// with fewer documents than workers, and where one document is too large
// a share of the corpus bytes for the workers.
TEST(SharedPassTest, EachTaskParsesAloneWhereSharingDoesNotPay) {
  XMarkCorpusOptions corpus_options;
  corpus_options.documents = 3;
  corpus_options.scale = 0.001;
  const std::vector<std::string> even = GenerateXMarkCorpus(corpus_options);
  const std::vector<std::string> two(even.begin(), even.begin() + 2);
  // Three small documents and one larger than the three together: on
  // four workers its shared pass would outlast a worker's share of the
  // per-task work.
  std::vector<std::string> uneven = even;
  uneven.push_back(XmarkDoc(0.004));
  ASSERT_GT(uneven[3].size(),
            uneven[0].size() + uneven[1].size() + uneven[2].size());
  const std::vector<NameSet> dashboard = DashboardProjectors();
  struct Case {
    const char* name;
    const std::vector<std::string>* corpus;
    int threads;
    TaskBudget budget;
  };
  for (const Case& c :
       {Case{"cap", &even, 2, {.max_bytes = even[0].size() * 4}},
        Case{"deadline", &even, 2, {.deadline_ms = 60000}},
        Case{"fewer documents than workers", &two, 4, {}},
        Case{"one large document among small ones", &uneven, 4, {}}}) {
    SCOPED_TRACE(c.name);
    const std::vector<std::string>& corpus = *c.corpus;
    PipelineOptions options;
    options.num_threads = c.threads;
    options.budget = c.budget;
    const ParseCount one = CountParses(corpus, std::span(dashboard).first(1),
                                       options);
    const ParseCount per_query = CountParses(corpus, dashboard, options);
    EXPECT_EQ(per_query.start_tags, one.start_tags * dashboard.size());
    EXPECT_EQ(per_query.task_hits, corpus.size() * dashboard.size());

    options.policy = ErrorPolicy::kIsolate;
    auto run = PruneCorpusPerQuery(corpus, XmarkDtd(), dashboard, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (size_t i = 0; i < run->results.size(); ++i) {
      SCOPED_TRACE("task " + std::to_string(i));
      ExpectSameReading(ReadTask(*run, i),
                        Alone(corpus[i / dashboard.size()], XmarkDtd(),
                              dashboard[i % dashboard.size()], options));
    }
  }
}

// The projectors reject different subtrees, so each branch's skip counts
// differ from the parser's: a tee that handed its branches the parser's
// counts fails here.
TEST(SharedPassTest, EachBranchCountsItsOwnSkips) {
  const std::vector<std::string> corpus = {XmarkDoc(0.01)};
  const std::vector<NameSet> dashboard = DashboardProjectors();
  std::vector<Reading> alone = ExpectSharedMatchesAlone(
      corpus, XmarkDtd(), dashboard, PipelineOptions{}, "dashboard");
  size_t distinct = 0;
  for (size_t q = 1; q < alone.size(); ++q) {
    if (alone[q].stats.skipped_bytes != alone[0].stats.skipped_bytes) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0u) << "the projectors must skip differently";
}

// Thinning projectors over the shared random grammars: even names plus
// the root, odd names plus the root, and the root alone.
std::vector<NameSet> ThinningProjectors(const Dtd& dtd) {
  std::vector<NameSet> out;
  for (int keep : {0, 1, 2}) {
    NameSet thinned(dtd.name_count());
    if (keep < 2) {
      dtd.AllNames().ForEach([&](NameId n) {
        if (static_cast<int>(n % 2) == keep) thinned.Add(n);
      });
    }
    thinned.Add(dtd.root());
    out.push_back(std::move(thinned));
  }
  return out;
}

TEST(SharedPassTest, RandomGrammars) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    std::vector<std::string> corpus;
    for (uint64_t d = 0; d < 2; ++d) {
      DocGenerator gen(dtd, seed * 7919 + 3 + d);
      auto doc = gen.Generate();
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      corpus.push_back(SerializeDocument(*doc));
    }
    const std::vector<NameSet> projectors = ThinningProjectors(dtd);
    for (bool validate : {false, true}) {
      PipelineOptions options;
      options.validate = validate;
      ExpectSharedMatchesAlone(corpus, dtd, projectors, options,
                               "seed " + std::to_string(seed) +
                                   (validate ? " validate" : " prune"));
    }
  }
}

// --- Failures ---------------------------------------------------------------

// <drop> holds the hostile content: one projector skips it, the other
// keeps it, so the shared parse meets what only the keeper's own pass
// would meet.
const Dtd& GalleryDtd() {
  static const Dtd* dtd = new Dtd(std::move(ParseDtd(R"(
    <!ELEMENT r (keep, drop, keep)>
    <!ELEMENT keep (#PCDATA)>
    <!ELEMENT drop (#PCDATA)>
  )",
                                                     "r"))
                                        .value());
  return *dtd;
}

std::vector<NameSet> GalleryProjectors() {
  const Dtd& dtd = GalleryDtd();
  NameSet skipper(dtd.name_count());
  skipper.Add(dtd.root());
  skipper.Add(dtd.NameOfTag("keep"));
  skipper.Add(dtd.StringNameOf(dtd.NameOfTag("keep")));
  NameSet keeper = skipper;
  keeper.Add(dtd.NameOfTag("drop"));
  keeper.Add(dtd.StringNameOf(dtd.NameOfTag("drop")));
  return {skipper, keeper};
}

std::string GalleryDoc(std::string_view drop_content) {
  return "<r><keep>one</keep><drop>" + std::string(drop_content) +
         "</drop><keep>two</keep></r>";
}

TEST(SharedPassTest, DefectInsideASubtreeOnlyOneProjectorKeeps) {
  const std::vector<std::string> corpus = {GalleryDoc("a&nbsp;b")};
  std::vector<Reading> alone =
      ExpectSharedMatchesAlone(corpus, GalleryDtd(), GalleryProjectors(),
                               PipelineOptions{}, "unknown entity");
  ASSERT_EQ(alone.size(), 2u);
  // The skipper never tokenizes the entity; the keeper fails on it.
  EXPECT_TRUE(alone[0].status.ok()) << alone[0].status.ToString();
  EXPECT_EQ(alone[0].output, "<r><keep>one</keep><keep>two</keep></r>");
  EXPECT_EQ(alone[1].status.code(), StatusCode::kParseError);
  EXPECT_EQ(alone[1].stage, "parse");
}

TEST(SharedPassTest, HostileGallery) {
  const char* contents[] = {
      // A skip accepts these; a full parse does not.
      "<y a=1 b/>", "<y a=\"<\">t</y>", "a&nbsp;b", "<y>&#xD800;</y>",
      // A skip rejects these too.
      "<y><z>t</y></z>", "<yy>t</y>", "<y>t</yy>", "<!-- c ",
      "<![CDATA[ c ", "<?pi c ", "<y a=\"v></y>", "<!X>",
      // Well-formed but undeclared inside <drop>: only the keeper fails.
      "<y>t</y>", "text"};
  for (const char* content : contents) {
    const std::vector<std::string> corpus = {GalleryDoc(content)};
    for (bool degrade : {false, true}) {
      PipelineOptions options;
      options.degrade_on_invalid = degrade;
      ExpectSharedMatchesAlone(corpus, GalleryDtd(), GalleryProjectors(),
                               options, content);
    }
  }
  // Truncated documents fail every branch.
  for (const char* doc : {"<r><keep>one</keep><drop><y>text",
                          "<r><keep>one</keep><drop><y a=\"v\""}) {
    const std::vector<std::string> corpus = {doc};
    ExpectSharedMatchesAlone(corpus, GalleryDtd(), GalleryProjectors(),
                             PipelineOptions{}, doc);
  }
}

// A cap between the projectors' peaks: the keep-everything projector
// alone exceeds it. Under a cap each task runs a pass of its own.
TEST(SharedPassTest, TightByteCapOneBranchExceeds) {
  const std::vector<std::string> corpus = {XmarkDoc(0.001)};
  std::vector<NameSet> projectors = DashboardProjectors();
  projectors.push_back(XmarkDtd().AllNames());
  std::vector<Reading> unbudgeted = ExpectSharedMatchesAlone(
      corpus, XmarkDtd(), projectors, PipelineOptions{}, "no budget");
  size_t thin_peak = 0;
  for (size_t q = 0; q + 1 < unbudgeted.size(); ++q) {
    thin_peak = std::max(thin_peak, unbudgeted[q].peak);
  }
  const size_t full_peak = unbudgeted.back().peak;
  ASSERT_LT(thin_peak + 1000, full_peak);
  PipelineOptions options;
  options.budget.max_bytes = (thin_peak + full_peak) / 2;
  std::vector<Reading> capped = ExpectSharedMatchesAlone(
      corpus, XmarkDtd(), projectors, options, "cap");
  for (size_t q = 0; q + 1 < capped.size(); ++q) {
    EXPECT_TRUE(capped[q].status.ok()) << capped[q].status.ToString();
  }
  EXPECT_EQ(capped.back().stage, "budget");
}

// <site><regions>, `depth` nested <x>: the {site} projector skips
// <regions>, the {site, regions, africa} projector keeps it and fails on
// the undeclared <x>, and the {site, regions} projector keeps <regions>
// but none of its children, so it skips the content like {site} does.
// Alone, each skipper fails a 1 MiB cap at 1,000,000 levels and
// completes 30,000 levels under a 1.5 MiB cap (its skip polls only where
// the charge crosses a MiB line).
std::string NestedInSkippedRegions(size_t depth) {
  std::string doc = "<site><regions>";
  doc.reserve(doc.size() + depth * 7 + 17);
  for (size_t i = 0; i < depth; ++i) doc += "<x>";
  for (size_t i = 0; i < depth; ++i) doc += "</x>";
  doc += "</regions></site>";
  return doc;
}

TEST(SharedPassTest, NestedSkipCapDocument) {
  const Dtd& dtd = XmarkDtd();
  NameSet site(dtd.name_count());
  site.Add(dtd.root());
  NameSet regions = site;
  regions.Add(dtd.NameOfTag("regions"));
  NameSet africa = regions;
  africa.Add(dtd.NameOfTag("africa"));
  const std::vector<NameSet> projectors = {site, africa, regions};
  const size_t mib = size_t{1} << 20;
  struct Case {
    size_t depth;
    size_t cap;
    bool skipper_completes;
  };
  for (const Case& c : {Case{1000000, mib, false},
                        Case{30000, mib * 3 / 2, true}}) {
    const std::vector<std::string> corpus = {
        NestedInSkippedRegions(c.depth)};
    PipelineOptions options;
    options.budget.max_bytes = c.cap;
    std::vector<Reading> alone =
        ExpectSharedMatchesAlone(corpus, dtd, projectors, options,
                                 "depth " + std::to_string(c.depth));
    ASSERT_EQ(alone.size(), 3u);
    for (size_t skipper : {0, 2}) {
      EXPECT_EQ(alone[skipper].status.ok(), c.skipper_completes)
          << skipper << ": " << alone[skipper].status.ToString();
      if (!c.skipper_completes) {
        EXPECT_EQ(alone[skipper].stage, "budget") << skipper;
      }
    }
    EXPECT_EQ(alone[1].stage, "prune") << alone[1].status.ToString();
  }
}

// Why a byte cap gives each task a pass of its own. The "big" projector
// rejects <a>; alone, its skip of <a> polls once, 1 MiB into <a>'s
// content, where 10,000 open <x> inside <e> charge 650 KB. The "pad"
// projector keeps <a> and rejects <e>. A shared pass's skip of <e> would
// poll only on <e>'s own grid (never: <e> holds under 1 MiB) and at MiB
// lines of the charge (none), so the big task would complete under a cap
// its own pass fails.
TEST(SharedPassTest, ByteCapChecksWhereTheOwnSkipWould) {
  static const Dtd* dtd = new Dtd(std::move(ParseDtd(R"(
    <!ELEMENT r (big, a)>
    <!ELEMENT big (#PCDATA)>
    <!ELEMENT a (pad, e)>
    <!ELEMENT pad (#PCDATA)>
    <!ELEMENT e (#PCDATA)>
  )",
                                                     "r"))
                                        .value());
  const size_t big = 1000000, pad = 600000, depth = 10000, filler = 500000;
  std::string doc = "<r><big>" + std::string(big, 'b') + "</big><a><pad>" +
                    std::string(pad, 'p') + "</pad><e>";
  for (size_t i = 0; i < depth; ++i) doc += "<x>";
  doc += std::string(filler, 'y');
  for (size_t i = 0; i < depth; ++i) doc += "</x>";
  doc += "</e></a></r>";
  NameSet big_branch(dtd->name_count());
  big_branch.Add(dtd->root());
  big_branch.Add(dtd->NameOfTag("big"));
  big_branch.Add(dtd->StringNameOf(dtd->NameOfTag("big")));
  NameSet pad_branch(dtd->name_count());
  pad_branch.Add(dtd->root());
  pad_branch.Add(dtd->NameOfTag("a"));
  pad_branch.Add(dtd->NameOfTag("pad"));
  pad_branch.Add(dtd->StringNameOf(dtd->NameOfTag("pad")));
  const std::vector<NameSet> projectors = {big_branch, pad_branch};
  const std::vector<std::string> corpus = {doc};
  PipelineOptions options;
  options.budget.max_bytes = big + 10000;
  std::vector<Reading> alone =
      ExpectSharedMatchesAlone(corpus, *dtd, projectors, options, "capped");
  ASSERT_EQ(alone.size(), 2u);
  EXPECT_EQ(alone[0].stage, "budget") << alone[0].status.ToString();
  EXPECT_TRUE(alone[1].status.ok()) << alone[1].status.ToString();
}

// An undeclared element inside <regions>: the projectors that keep
// <regions> fail and, with degrade_on_invalid, answer with the identity
// pass; the others prune.
TEST(SharedPassTest, DegradeOnInvalid) {
  std::string doc = XmarkDoc(0.001);
  const size_t regions = doc.find("<regions>");
  ASSERT_NE(regions, std::string::npos);
  doc.insert(regions + 9, "<bogus/>");
  const std::vector<std::string> corpus = {doc};
  std::vector<NameSet> projectors = EveryQueryProjectors();
  for (bool validate : {false, true}) {
    PipelineOptions options;
    options.degrade_on_invalid = true;
    options.validate = validate;
    std::vector<Reading> alone = ExpectSharedMatchesAlone(
        corpus, XmarkDtd(), projectors, options,
        validate ? "validate" : "prune");
    size_t degraded = 0;
    for (const Reading& reading : alone) {
      EXPECT_TRUE(reading.status.ok()) << reading.status.ToString();
      if (reading.degraded) ++degraded;
    }
    EXPECT_GT(degraded, 0u);
    if (validate) {
      EXPECT_EQ(degraded, alone.size());
    } else {
      EXPECT_LT(degraded, alone.size());
    }
  }
}

}  // namespace
}  // namespace xmlproj

// DTD-parser fuzz and property suite, mirroring xml_fuzz_test.cc for the
// declaration language: randomly corrupted DTD text must produce Status
// errors — never crashes, hangs, or inconsistent grammars — and valid
// grammars must survive a render → reparse round trip that preserves the
// documents they accept.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "random_xml.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlproj {
namespace {

using testing_random::DocGenerator;
using testing_random::RandomDtd;

// Renders a grammar back to DTD declaration text. Only the constructs
// RandomDtd emits are needed (Name/Seq/Choice/Star/Plus/Opt over element
// and String names); #PCDATA placement follows DTD syntax: a lone
// PCDATA leaf renders as (#PCDATA), mixed content as (#PCDATA | a | b)*.
std::string RenderRegex(const Dtd& dtd, const ContentModel& model,
                        int32_t index) {
  const RegexNode& node = model.node(index);
  switch (node.kind) {
    case RegexKind::kEpsilon:
      return "";
    case RegexKind::kAny:
      return "ANY";
    case RegexKind::kName:
      if (dtd.IsStringName(node.name)) return "#PCDATA";
      return dtd.production(node.name).tag;
    case RegexKind::kSeq: {
      std::string out = "(";
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += RenderRegex(dtd, model, node.children[i]);
      }
      return out + ")";
    }
    case RegexKind::kChoice: {
      std::string out = "(";
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out += " | ";
        out += RenderRegex(dtd, model, node.children[i]);
      }
      return out + ")";
    }
    case RegexKind::kStar:
    case RegexKind::kPlus:
    case RegexKind::kOpt: {
      std::string out = "(";
      out += RenderRegex(dtd, model, node.children[0]);
      out += node.kind == RegexKind::kStar   ? ")*"
             : node.kind == RegexKind::kPlus ? ")+"
                                             : ")?";
      return out;
    }
  }
  return "";
}

std::string RenderDtd(const Dtd& dtd) {
  std::string out;
  for (NameId id = 0; id < static_cast<NameId>(dtd.name_count()); ++id) {
    const Production& p = dtd.production(id);
    if (p.is_string || p.is_document) continue;
    out += "<!ELEMENT " + p.tag + " ";
    if (p.content.empty_model()) {
      out += "EMPTY";
    } else {
      const RegexNode& root = p.content.node(p.content.root());
      // A lone PCDATA star leaf is written (#PCDATA); mixed content keeps
      // its trailing star.
      if (root.kind == RegexKind::kStar &&
          p.content.node(root.children[0]).kind == RegexKind::kName &&
          dtd.IsStringName(p.content.node(root.children[0]).name)) {
        out += "(#PCDATA)";
      } else if (root.kind == RegexKind::kStar &&
                 p.content.node(root.children[0]).kind == RegexKind::kChoice) {
        out += RenderRegex(dtd, p.content, root.children[0]) + "*";
      } else {
        std::string body = RenderRegex(dtd, p.content, p.content.root());
        if (body.empty() || body.front() != '(') body = "(" + body + ")";
        out += body;
      }
    }
    out += ">\n";
    for (const AttributeDecl& a : p.attributes) {
      out += "<!ATTLIST " + p.tag + " " + a.name + " CDATA " +
             (a.required ? "#REQUIRED" : "#IMPLIED") + ">\n";
    }
  }
  return out;
}

// Same mutation operators as xml_fuzz_test.cc.
std::string Mutate(const std::string& input, Rng* rng) {
  std::string out = input;
  int edits = rng->IntIn(1, 4);
  for (int e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = rng->Below(out.size());
    switch (rng->IntIn(0, 3)) {
      case 0:
        out[pos] = "<>&\"'/=[]{}()\0x"[rng->Below(14)];
        break;
      case 1:
        out.erase(pos, rng->IntIn(1, 8));
        break;
      case 2:
        out.insert(pos, out.substr(pos, rng->IntIn(1, 8)));
        break;
      default:
        out.resize(pos);
        break;
    }
  }
  return out;
}

// Any grammar the parser accepts must be internally consistent enough to
// drive the validator without crashing.
void CheckAcceptedGrammar(const Dtd& dtd) {
  EXPECT_GE(dtd.root(), 0);
  EXPECT_LT(static_cast<size_t>(dtd.root()), dtd.name_count());
  for (NameId id = 0; id < static_cast<NameId>(dtd.name_count()); ++id) {
    (void)dtd.production(id);
    (void)dtd.ChildrenOf(id);
  }
  (void)dtd.IsRecursive();
  (void)dtd.ReachableFromRoot();
}

// Round-trip property: rendering a random grammar to DTD text and
// reparsing it yields a grammar that accepts the same documents.
TEST(DtdFuzz, RandomGrammarsSurviveRenderReparseRoundTrip) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    std::string text = RenderDtd(dtd);
    auto reparsed = ParseDtd(text, dtd.production(dtd.root()).tag);
    ASSERT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << reparsed.status().ToString() << "\n"
        << text;
    // Documents valid under the original grammar stay valid under the
    // round-tripped one.
    for (uint64_t d = 0; d < 3; ++d) {
      DocGenerator gen(dtd, seed * 10 + d);
      auto doc = gen.Generate();
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      auto interp = Validate(*doc, *reparsed);
      EXPECT_TRUE(interp.ok()) << "seed " << seed << " doc " << d << ": "
                               << interp.status().ToString() << "\n"
                               << text;
    }
  }
}

// Byte-level fuzz over rendered random grammars — a much wider corpus of
// declaration shapes than the single XMark DTD xml_fuzz_test mutates.
TEST(DtdFuzz, MutatedRandomGrammarsNeverCrashTheParser) {
  int accepted = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    int name_count = 0;
    Dtd dtd = RandomDtd(seed, &name_count);
    std::string base = RenderDtd(dtd);
    std::string root_tag = dtd.production(dtd.root()).tag;
    Rng rng(seed * 0x9e3779b9ULL + 5);
    for (int i = 0; i < 400; ++i) {
      std::string mutated = Mutate(base, &rng);
      auto result = ParseDtd(mutated, root_tag);
      if (result.ok()) {
        ++accepted;
        CheckAcceptedGrammar(*result);
      }
    }
  }
  // Unmutated text parses, so some near-misses must squeak through, and
  // plenty must be rejected.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 4000);
}

// Every prefix truncation of a real-world DTD must be cleanly accepted or
// rejected — truncation is the classic corrupted-download failure mode.
TEST(DtdFuzz, TruncatedXMarkDtdNeverCrashesTheParser) {
  std::string base(XMarkDtdText());
  for (size_t len = 0; len <= base.size(); len += 7) {
    std::string prefix = base.substr(0, len);
    auto result = ParseDtd(prefix, "site");
    if (result.ok()) CheckAcceptedGrammar(*result);
  }
}

// Targeted ATTLIST fuzz: the attribute-declaration sublanguage has its
// own grammar (types, #REQUIRED/#IMPLIED/defaults) that generic byte
// mutation rarely reaches with interesting values.
TEST(DtdFuzz, AttlistGarbageNeverCrashesTheParser) {
  const char* kAttlistFragments[] = {
      "id ID #REQUIRED",
      "name CDATA #IMPLIED",
      "x CDATA \"default\"",
      "a ID #REQUIRED b CDATA #IMPLIED",
      "id ID",                 // missing default spec
      "#REQUIRED",             // missing name and type
      "id #REQUIRED",          // missing type
      "id ID \"unterminated",  // unclosed default literal
      "id ID #FIXED",          // unsupported default kind
      "",                      // empty declaration body
  };
  Rng rng(0xa771157);
  for (int i = 0; i < 2000; ++i) {
    std::string text = "<!ELEMENT r (a*)>\n<!ELEMENT a (#PCDATA)>\n";
    int decls = rng.IntIn(1, 3);
    for (int d = 0; d < decls; ++d) {
      std::string body =
          kAttlistFragments[rng.Below(sizeof(kAttlistFragments) /
                                      sizeof(kAttlistFragments[0]))];
      // Half the time, corrupt the fragment further.
      if (rng.Chance(1, 2)) body = Mutate(body, &rng);
      text += "<!ATTLIST " + std::string(rng.Chance(1, 2) ? "a" : "ghost") +
              " " + body + ">\n";
    }
    auto result = ParseDtd(text, "r");
    if (result.ok()) CheckAcceptedGrammar(*result);
  }
}

// Declaration-level structural fuzz: shuffled, duplicated, and dropped
// declarations are either rejected or parsed into a consistent grammar.
TEST(DtdFuzz, ShuffledAndDuplicatedDeclarationsStayConsistent) {
  std::string base(XMarkDtdText());
  // Split into individual declarations.
  std::vector<std::string> decls;
  size_t pos = 0;
  while ((pos = base.find("<!", pos)) != std::string::npos) {
    size_t end = base.find('>', pos);
    if (end == std::string::npos) break;
    decls.push_back(base.substr(pos, end - pos + 1));
    pos = end + 1;
  }
  ASSERT_GT(decls.size(), 10u);
  Rng rng(0x5affe);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> shuffled = decls;
    // Fisher–Yates with the repo RNG (std::shuffle needs a URBG).
    for (size_t k = shuffled.size(); k > 1; --k) {
      std::swap(shuffled[k - 1], shuffled[rng.Below(k)]);
    }
    if (rng.Chance(1, 2)) {
      shuffled.push_back(shuffled[rng.Below(shuffled.size())]);  // duplicate
    }
    if (rng.Chance(1, 2)) {
      shuffled.erase(shuffled.begin() +
                     static_cast<ptrdiff_t>(rng.Below(shuffled.size())));
    }
    std::string text;
    for (const std::string& d : shuffled) text += d + "\n";
    auto result = ParseDtd(text, "site");
    if (result.ok()) CheckAcceptedGrammar(*result);
  }
}

}  // namespace
}  // namespace xmlproj

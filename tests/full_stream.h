// FullStream: the slow path of skip-scanning, for differential tests.
//
// A SAX filter between an event producer and a handler that may return
// the skip verdict (StreamingPruner). It takes the verdict itself: it
// answers OK to the producer and drops every event of the skipped
// element, its EndElement included. So the producer never skips, the
// parser tokenizes every byte, and the handler sees exactly the events
// it would see behind a skipping parser. This is the dropping logic the
// pruner carried before the producers honoured the verdict.

#ifndef XMLPROJ_TESTS_FULL_STREAM_H_
#define XMLPROJ_TESTS_FULL_STREAM_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/sax.h"

namespace xmlproj {
namespace testing_skip {

class FullStream : public SaxHandler {
 public:
  explicit FullStream(SaxHandler* downstream) : downstream_(downstream) {}

  // Start tags dropped inside skipped elements (the skipped element
  // itself reached the handler).
  size_t dropped_elements() const { return dropped_elements_; }
  // For each skipped element, its content plus its end tag, measured
  // with the locator: from the end of its start tag to the end of its
  // end tag. Needs a producer with a locator.
  size_t dropped_bytes() const { return dropped_bytes_; }

  void SetLocator(const SaxLocator* locator) override {
    locator_ = locator;
    downstream_->SetLocator(locator);
  }
  Status StartDocument() override { return downstream_->StartDocument(); }
  Status EndDocument() override { return downstream_->EndDocument(); }
  Status StartElement(std::string_view tag,
                      const std::vector<SaxAttribute>& attributes) override {
    if (depth_ > 0) {
      ++depth_;
      ++dropped_elements_;
      return Status::Ok();
    }
    Status verdict = downstream_->StartElement(tag, attributes);
    if (verdict.code() != StatusCode::kSkipSubtree) return verdict;
    depth_ = 1;
    if (locator_ != nullptr) skip_begin_ = locator_->event_end();
    return Status::Ok();
  }
  Status EndElement(std::string_view tag) override {
    if (depth_ == 0) return downstream_->EndElement(tag);
    if (--depth_ == 0 && locator_ != nullptr) {
      dropped_bytes_ += locator_->event_end() - skip_begin_;
    }
    return Status::Ok();
  }
  Status Characters(std::string_view text) override {
    if (depth_ > 0) return Status::Ok();
    return downstream_->Characters(text);
  }
  Status Doctype(std::string_view name,
                 std::string_view internal_subset) override {
    return downstream_->Doctype(name, internal_subset);
  }

 private:
  SaxHandler* downstream_;
  const SaxLocator* locator_ = nullptr;
  size_t depth_ = 0;
  size_t skip_begin_ = 0;
  size_t dropped_elements_ = 0;
  size_t dropped_bytes_ = 0;
};

}  // namespace testing_skip
}  // namespace xmlproj

#endif  // XMLPROJ_TESTS_FULL_STREAM_H_

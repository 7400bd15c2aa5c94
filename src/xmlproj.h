// Umbrella header: the public API of the type-based XML projection
// library. Include this (and link the `xmlproj` CMake target) to get the
// whole pipeline; the individual headers remain self-contained for
// finer-grained dependencies.
//
//   parse      ParseXml / ParseXmlStream            (xml/parser.h)
//   schema     ParseDtd, Validate, InferDataGuide   (dtd/)
//   analyze    AnalyzeXPathQuery / ExtractPaths +
//              InferProjectorForQuery               (projection/, xquery/)
//   prune      PruneDocument, StreamingPruner,
//              ValidatingPruner, ParseAndPrune      (projection/pruner.h)
//   query      XPathEvaluator, XQueryEvaluator      (xpath/, xquery/)

#ifndef XMLPROJ_XMLPROJ_H_
#define XMLPROJ_XMLPROJ_H_

#include "common/memory_meter.h"
#include "common/status.h"
#include "dtd/dataguide.h"
#include "dtd/dtd.h"
#include "dtd/dtd_parser.h"
#include "dtd/validator.h"
#include "projection/pipeline.h"
#include "projection/projection.h"
#include "projection/projector_inference.h"
#include "projection/pruner.h"
#include "projection/type_inference.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/approximate.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/xpathl.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xquery/path_extraction.h"

#endif  // XMLPROJ_XMLPROJ_H_

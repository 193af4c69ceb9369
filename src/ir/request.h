// The one request front door (DESIGN.md §10.2): SearchEngine::Search,
// SearchSnapshot and the result cache's key all run a request through
// PrepareQuery, so each rejection is decided and worded in one place.
#ifndef X100IR_IR_REQUEST_H_
#define X100IR_IR_REQUEST_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "ir/query_gen.h"
#include "ir/search_engine.h"

namespace x100ir::ir {

// Checks one request against the structure it will run on and normalizes
// its terms, in this order: k > 0; a storage run needs `has_storage`; sort
// and dedupe; at least one term; every term below `vocab_size`; then the
// terms `df` reports no documents for ("unknown") drop — and a BoolAND
// naming one matches nothing. On OK *terms holds the sorted distinct
// known terms, or is empty when the request matches nothing (the caller
// answers with an empty OK result). A request that can match is last
// checked against opts.deadline, so a query admitted past its deadline
// fails before any plan is built.
inline Status PrepareQuery(const Query& query, RunType type,
                           const SearchOptions& opts, uint32_t vocab_size,
                           bool has_storage,
                           const std::function<uint32_t(uint32_t)>& df,
                           std::vector<uint32_t>* terms) {
  if (opts.k == 0) {
    return InvalidArgument("k must be > 0 (no run returns zero results)");
  }
  if (IsStorageRun(type) && !has_storage) {
    return FailedPrecondition(
        std::string(RunTypeName(type)) +
        " needs an on-disk index (Database opened with a directory): the "
        "storage runs read cold columns through the buffer pool");
  }
  *terms = query.terms;
  std::sort(terms->begin(), terms->end());
  terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
  if (terms->empty()) return InvalidArgument("query has no terms");
  for (uint32_t t : *terms) {
    if (t >= vocab_size) {
      return InvalidArgument(StrFormat("query term %u outside vocabulary", t));
    }
  }
  // Dropping unknown terms keeps every plan off zero-length posting lists.
  const size_t before = terms->size();
  terms->erase(std::remove_if(terms->begin(), terms->end(),
                              [&df](uint32_t t) { return df(t) == 0; }),
               terms->end());
  if (type == RunType::kBoolAnd && terms->size() != before) terms->clear();
  if (terms->empty() || opts.deadline == nullptr) return OkStatus();
  return opts.deadline->Check();
}

}  // namespace x100ir::ir

#endif  // X100IR_IR_REQUEST_H_

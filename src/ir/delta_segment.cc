#include "ir/delta_segment.h"

namespace x100ir::ir {

Status DeltaSegment::Add(std::vector<DocTerm> doc, int32_t* global_docid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (sealed_) {
    return FailedPrecondition("delta segment is sealed (merge in progress)");
  }
  const int32_t local = static_cast<int32_t>(doc_lens_.size());
  int32_t len = 0;
  for (const DocTerm& dt : doc) {
    postings_[dt.term].emplace_back(local, dt.tf);
    len += dt.tf;
  }
  doc_lens_.push_back(len);
  docs_.push_back(std::move(doc));
  if (global_docid != nullptr) *global_docid = base_ + local;
  return OkStatus();
}

void DeltaSegment::CollectPostings(const std::vector<uint32_t>& terms,
                                   uint32_t visible, bool with_doc_lens,
                                   DeltaPostings* out) const {
  out->terms = terms;
  out->begin.clear();
  out->docids.clear();
  out->tfs.clear();
  out->doc_lens.clear();
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (uint32_t t : terms) {
    out->begin.push_back(static_cast<uint32_t>(out->docids.size()));
    for (const auto& [local, tf] : postings_[t]) {
      if (static_cast<uint32_t>(local) >= visible) break;  // index ascending
      out->docids.push_back(local);
      out->tfs.push_back(tf);
    }
  }
  out->begin.push_back(static_cast<uint32_t>(out->docids.size()));
  if (with_doc_lens) {
    out->doc_lens.assign(doc_lens_.begin(), doc_lens_.begin() + visible);
  }
}

}  // namespace x100ir::ir

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

void DeltaSegment::CollectPostings(uint32_t term, uint32_t visible,
                                   std::vector<int32_t>* local_idx,
                                   std::vector<int32_t>* tfs,
                                   std::vector<int32_t>* doc_lens) const {
  local_idx->clear();
  tfs->clear();
  doc_lens->clear();
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [local, tf] : postings_[term]) {
    if (static_cast<uint32_t>(local) >= visible) break;  // index ascending
    local_idx->push_back(local);
    tfs->push_back(tf);
    doc_lens->push_back(doc_lens_[local]);
  }
}

}  // namespace x100ir::ir

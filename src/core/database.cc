#include "core/database.h"

#include <utility>

namespace x100ir::core {

Status Database::Open(const DatabaseOptions& options) {
  open_ = false;
  // The old manager borrows the old corpus (and may be merging over it):
  // it must die before the corpus is regenerated.
  manager_.reset();
  build_stats_ = ir::BuildStats();
  X100IR_RETURN_IF_ERROR(ir::Corpus::Generate(options.corpus, &corpus_));
  return OpenPrepared(options.dir, options.storage);
}

Status Database::OpenWithCorpus(ir::Corpus corpus, const std::string& dir,
                                const storage::StorageOptions& storage) {
  open_ = false;
  manager_.reset();  // same teardown-before-corpus-swap order as Open
  build_stats_ = ir::BuildStats();
  corpus_ = std::move(corpus);
  return OpenPrepared(dir, storage);
}

Status Database::OpenPrepared(const std::string& dir,
                              const storage::StorageOptions& storage) {
  manager_ = std::make_unique<ir::SnapshotManager>();
  X100IR_RETURN_IF_ERROR(
      manager_->Open(&corpus_, dir, storage, &build_stats_));
  open_ = true;
  return OkStatus();
}

Status Database::Search(const ir::Query& query, ir::RunType type,
                        const ir::SearchOptions& opts,
                        ir::SearchResult* result) const {
  if (!open_) return InvalidArgument("database is not open");
  return ir::SearchSnapshot(*manager_->Acquire(), query, type, opts, result);
}

Status Database::AddDocument(const std::vector<uint32_t>& terms,
                             int32_t* docid) {
  if (!open_) return InvalidArgument("database is not open");
  return manager_->AddDocument(terms, docid);
}

Status Database::DeleteDocument(int32_t docid) {
  if (!open_) return InvalidArgument("database is not open");
  return manager_->DeleteDocument(docid);
}

Status Database::StartMerge() {
  if (!open_) return InvalidArgument("database is not open");
  return manager_->StartMerge();
}

Status Database::WaitMerge() {
  if (!open_) return InvalidArgument("database is not open");
  return manager_->WaitMerge();
}

Status Database::Merge() {
  if (!open_) return InvalidArgument("database is not open");
  return manager_->Merge();
}

bool Database::merge_running() const {
  return open_ && manager_->merge_running();
}

uint64_t Database::epoch() const {
  return open_ ? manager_->epoch() : 0;
}

std::shared_ptr<const ir::Snapshot> Database::Acquire() const {
  return open_ ? manager_->Acquire() : nullptr;
}

const ir::InvertedIndex* Database::index() const {
  if (!open_) return nullptr;
  std::shared_ptr<const ir::Snapshot> snap = manager_->Acquire();
  return snap->segments.empty() ? nullptr : &snap->segments[0].seg->index();
}

}  // namespace x100ir::core

#include "service/service.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/guardian.h"
#include "data/relation.h"
#include "data/schema.h"
#include "util/check.h"

namespace hyfd::service {

namespace {

/// Admission estimate for one ingested cell: dictionary code + PLI slot +
/// compressed record + value-index entries, plus twice the lexeme (segment
/// dictionary + encode index). Deliberately generous — admission refuses
/// work the budget could not absorb; it is not an accountant.
constexpr size_t kBytesPerCell = 64;

ServiceResult Err(ServiceError code, std::string message,
                  std::string reason_code = "") {
  ServiceResult r;
  r.code = code;
  r.reason_code = std::move(reason_code);
  r.message = std::move(message);
  return r;
}

size_t EstimateRowsBytes(const Rows& rows) {
  size_t bytes = 0;
  for (const Row& row : rows) {
    for (const auto& cell : row) {
      bytes += kBytesPerCell + (cell.has_value() ? 2 * cell->size() : 0);
    }
  }
  return bytes;
}

TableStatus StatusOf(const IncrementalHyFd& session) {
  TableStatus s;
  s.num_fds = session.fds().size();
  s.live_rows = session.num_live_rows();
  s.total_rows = session.relation().num_rows();
  s.num_batches = static_cast<uint64_t>(session.num_batches());
  const IncrementalBatchStats last = session.last_batch_stats();
  s.last_validations = last.validations;
  s.last_comparisons = last.comparisons;
  s.relation_version = session.relation().version();
  return s;
}

/// Narrows wire row ids (u64) to the session's RecordId space; a value that
/// cannot name any physical row is an argument error, not a truncation.
bool NarrowIds(const std::vector<uint64_t>& wire, std::vector<RecordId>* out) {
  out->reserve(wire.size());
  for (uint64_t id : wire) {
    if (id > std::numeric_limits<RecordId>::max()) return false;
    out->push_back(static_cast<RecordId>(id));
  }
  return true;
}

}  // namespace

FdService::FdService(ServiceConfig config)
    : config_(config),
      pool_(std::make_unique<ThreadPool>(
          std::max<size_t>(1, config.num_workers))) {}

FdService::~FdService() { Shutdown(); }

void FdService::Shutdown() {
  {
    MutexLock lock(state_mu_);
    shutting_down_ = true;
    while (inflight_ > 0) drained_.Wait(state_mu_);
  }
  pool_.reset();
}

ServiceResult FdService::Execute(const std::function<ServiceResult()>& work) {
  {
    MutexLock lock(state_mu_);
    if (shutting_down_) {
      return Err(ServiceError::kShuttingDown, "service is shutting down");
    }
    if (inflight_ >= config_.max_inflight) {
      return Err(ServiceError::kBackpressure,
                 "too many requests in flight (max " +
                     std::to_string(config_.max_inflight) + "); retry later");
    }
    ++inflight_;
  }

  // Per-request completion latch: the caller gets synchronous semantics
  // while execution parallelism is bounded by the shared pool.
  struct Latch {
    Mutex mu;
    CondVar cv;
    bool done HYFD_GUARDED_BY(mu) = false;
  };
  Latch latch;
  ServiceResult result;
  pool_->Submit([&work, &latch, &result]() {
    ServiceResult r;
    try {
      r = work();
    } catch (const std::exception& e) {
      r = Err(ServiceError::kInternal, e.what());
    } catch (...) {
      r = Err(ServiceError::kInternal, "unknown exception");
    }
    // Publish before signaling: the caller only reads `result` after
    // observing `done` under the latch mutex.
    result = std::move(r);
    MutexLock lock(latch.mu);
    latch.done = true;
    latch.cv.NotifyOne();
  });
  {
    MutexLock lock(latch.mu);
    while (!latch.done) latch.cv.Wait(latch.mu);
  }

  {
    MutexLock lock(state_mu_);
    --inflight_;
    if (inflight_ == 0) drained_.NotifyAll();
  }
  return result;
}

std::shared_ptr<FdService::TableEntry> FdService::FindTable(
    const std::string& name) {
  ReaderLock lock(registry_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second;
}

ServiceResult FdService::CreateTable(const CreateTableRequest& req) {
  return Execute([this, &req]() -> ServiceResult {
    if (req.table.empty()) {
      return Err(ServiceError::kInvalidArgument, "table name must be non-empty");
    }
    if (req.columns.empty()) {
      return Err(ServiceError::kInvalidArgument,
                 "schema needs at least one column");
    }
    std::unordered_set<std::string> seen;
    for (const std::string& column : req.columns) {
      if (!seen.insert(column).second) {
        return Err(ServiceError::kInvalidArgument,
                   "duplicate column name '" + column + "'");
      }
    }

    WriterLock lock(registry_mu_);
    if (tables_.count(req.table) > 0) {
      return Err(ServiceError::kTableExists,
                 "table '" + req.table + "' already exists");
    }
    if (tables_.size() >= config_.max_tables) {
      return Err(ServiceError::kTooManyTables,
                 "table limit reached (max " +
                     std::to_string(config_.max_tables) + ")");
    }

    IncrementalConfig session_config;
    session_config.null_semantics = config_.null_semantics;
    session_config.efficiency_threshold = config_.efficiency_threshold;
    // Sessions run on pool workers, where nested ParallelFor is forbidden.
    session_config.num_threads = 1;

    auto entry = std::make_shared<TableEntry>();
    ServiceResult r;
    {
      WriterLock entry_lock(entry->mu);
      entry->session = std::make_unique<IncrementalHyFd>(
          Relation::FromRows(Schema(req.columns), {}), session_config);
      r.reply.status = StatusOf(*entry->session);
    }
    tables_.emplace(req.table, std::move(entry));
    r.reply.request = MessageType::kCreateTable;
    return r;
  });
}

ServiceResult FdService::IngestBatch(const IngestBatchRequest& req) {
  return Execute([this, &req]() -> ServiceResult {
    auto entry = FindTable(req.table);
    if (entry == nullptr) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    const size_t estimated = EstimateRowsBytes(req.rows);

    WriterLock lock(entry->mu);
    if (entry->dropped) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    GuardianReason admit = MemoryGuardian::AdmitWork(
        retained_bytes_.load(), estimated, config_.memory_limit_bytes);
    if (admit != GuardianReason::kNone) {
      return Err(ServiceError::kMemoryRejected,
                 "batch of ~" + std::to_string(estimated) +
                     " bytes refused (retained " +
                     std::to_string(retained_bytes_.load()) + " of " +
                     std::to_string(config_.memory_limit_bytes) + ")",
                 GuardianReasonCode(admit));
    }
    IncrementalHyFd& session = *entry->session;
    try {
      session.ApplyBatch(req.rows);
    } catch (const ContractViolation& e) {
      // The session's CRUD contract: a rejected batch left it untouched.
      return Err(ServiceError::kInvalidArgument, e.what());
    }
    entry->retained_bytes.fetch_add(estimated, std::memory_order_relaxed);
    retained_bytes_.fetch_add(estimated, std::memory_order_relaxed);
    ServiceResult r;
    r.reply.request = MessageType::kIngestBatch;
    r.reply.status = StatusOf(session);
    return r;
  });
}

ServiceResult FdService::ApplyMixed(const ApplyMixedRequest& req) {
  return Execute([this, &req]() -> ServiceResult {
    auto entry = FindTable(req.table);
    if (entry == nullptr) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    std::vector<RecordId> deletes;
    if (!NarrowIds(req.deletes, &deletes)) {
      return Err(ServiceError::kInvalidArgument, "delete id out of range");
    }
    std::vector<std::pair<RecordId, Row>> updates;
    updates.reserve(req.updates.size());
    for (const auto& [id, row] : req.updates) {
      if (id > std::numeric_limits<RecordId>::max()) {
        return Err(ServiceError::kInvalidArgument, "update id out of range");
      }
      updates.emplace_back(static_cast<RecordId>(id), row);
    }
    size_t estimated = EstimateRowsBytes(req.inserts);
    for (const auto& [id, row] : req.updates) {
      estimated += EstimateRowsBytes({row});
    }

    WriterLock lock(entry->mu);
    if (entry->dropped) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    GuardianReason admit = MemoryGuardian::AdmitWork(
        retained_bytes_.load(), estimated, config_.memory_limit_bytes);
    if (admit != GuardianReason::kNone) {
      return Err(ServiceError::kMemoryRejected,
                 "mixed batch of ~" + std::to_string(estimated) +
                     " bytes refused",
                 GuardianReasonCode(admit));
    }
    IncrementalHyFd& session = *entry->session;
    try {
      session.ApplyMixed(req.inserts, deletes, updates);
    } catch (const ContractViolation& e) {
      return Err(ServiceError::kInvalidArgument, e.what());
    }
    entry->retained_bytes.fetch_add(estimated, std::memory_order_relaxed);
    retained_bytes_.fetch_add(estimated, std::memory_order_relaxed);
    ServiceResult r;
    r.reply.request = MessageType::kApplyMixed;
    r.reply.status = StatusOf(session);
    return r;
  });
}

ServiceResult FdService::QueryFds(const QueryFdsRequest& req) {
  return Execute([this, &req]() -> ServiceResult {
    auto entry = FindTable(req.table);
    if (entry == nullptr) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    ReaderLock lock(entry->mu);
    if (entry->dropped) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    const IncrementalHyFd& session = *entry->session;
    const int num_columns = session.relation().num_columns();
    AttributeSet filter(num_columns);
    if (req.has_lhs_filter) {
      for (uint32_t attr : req.lhs_filter) {
        if (attr >= static_cast<uint32_t>(num_columns)) {
          return Err(ServiceError::kInvalidArgument,
                     "lhs filter attribute " + std::to_string(attr) +
                         " out of range (table has " +
                         std::to_string(num_columns) + " columns)");
        }
        filter.Set(static_cast<int>(attr));
      }
    }
    ServiceResult r;
    r.reply.request = MessageType::kQueryFds;
    r.reply.status = StatusOf(session);
    for (const FD& fd : session.fds()) {
      if (req.has_lhs_filter && !fd.lhs.IsSubsetOf(filter)) continue;
      WireFd wire;
      for (int attr : fd.lhs.ToIndexes()) {
        wire.lhs.push_back(static_cast<uint32_t>(attr));
      }
      wire.rhs = static_cast<uint32_t>(fd.rhs);
      r.reply.fds.push_back(std::move(wire));
    }
    return r;
  });
}

ServiceResult FdService::QueryUccs(const TableRequest& req) {
  return Execute([this, &req]() -> ServiceResult {
    auto entry = FindTable(req.table);
    if (entry == nullptr) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    ReaderLock lock(entry->mu);
    if (entry->dropped) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    const IncrementalHyFd& session = *entry->session;
    ServiceResult r;
    r.reply.request = MessageType::kQueryUccs;
    r.reply.status = StatusOf(session);
    for (const AttributeSet& ucc : session.MinimalUccs()) {
      std::vector<uint32_t> wire;
      for (int attr : ucc.ToIndexes()) {
        wire.push_back(static_cast<uint32_t>(attr));
      }
      r.reply.uccs.push_back(std::move(wire));
    }
    return r;
  });
}

ServiceResult FdService::FetchReport(const TableRequest& req) {
  return Execute([this, &req]() -> ServiceResult {
    auto entry = FindTable(req.table);
    if (entry == nullptr) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    ReaderLock lock(entry->mu);
    if (entry->dropped) {
      return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
    }
    const IncrementalHyFd& session = *entry->session;
    ServiceResult r;
    r.reply.request = MessageType::kFetchReport;
    r.reply.status = StatusOf(session);
    r.reply.report_json = session.report().ToJson();
    // Fingerprint of the *live* content: append-order independent of
    // tombstones, so a service table and an oracle session that applied the
    // same logical schedule agree on it.
    r.reply.content_fingerprint = session.LiveContentFingerprint();
    return r;
  });
}

ServiceResult FdService::DropTable(const TableRequest& req) {
  return Execute([this, &req]() -> ServiceResult {
    std::shared_ptr<TableEntry> entry;
    {
      WriterLock lock(registry_mu_);
      auto it = tables_.find(req.table);
      if (it == tables_.end()) {
        return Err(ServiceError::kUnknownTable, "no table '" + req.table + "'");
      }
      entry = std::move(it->second);
      tables_.erase(it);
    }
    // The registry slot is gone (new lookups miss); tear the session down
    // under the entry lock, i.e. strictly after any in-flight request on
    // this table finished.
    {
      WriterLock lock(entry->mu);
      entry->dropped = true;
      entry->session.reset();
    }
    retained_bytes_.fetch_sub(
        entry->retained_bytes.exchange(0, std::memory_order_relaxed),
        std::memory_order_relaxed);
    ServiceResult r;
    r.reply.request = MessageType::kDropTable;
    return r;
  });
}

ServiceResult FdService::ListTables() {
  return Execute([this]() -> ServiceResult {
    ServiceResult r;
    r.reply.request = MessageType::kListTables;
    {
      ReaderLock lock(registry_mu_);
      r.reply.tables.reserve(tables_.size());
      for (const auto& [name, entry] : tables_) r.reply.tables.push_back(name);
    }
    std::sort(r.reply.tables.begin(), r.reply.tables.end());
    return r;
  });
}

}  // namespace hyfd::service

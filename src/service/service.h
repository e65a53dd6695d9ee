#ifndef HYFD_SERVICE_SERVICE_H_
#define HYFD_SERVICE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/incremental.h"
#include "pli/pli_builder.h"
#include "service/protocol.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace hyfd::service {

/// Tuning knobs of the multi-tenant profiling engine.
struct ServiceConfig {
  /// Worker threads executing requests. Sessions themselves always run
  /// single-threaded (a session living on a pool worker must never call
  /// ParallelFor — the nested-blocking guard would fire); parallelism comes
  /// from many tables in flight, not from one table fanning out.
  size_t num_workers = 4;
  /// Admission cap: requests executing or queued at once. One more request
  /// is refused with kBackpressure *before* anything is queued — the
  /// overload answer is a typed error, never an unbounded queue.
  size_t max_inflight = 64;
  size_t max_tables = 64;
  /// Byte budget for retained table state across all tenants; 0 = unlimited.
  /// Enforced up-front by MemoryGuardian::AdmitWork — an over-budget batch
  /// is refused with kMemoryRejected before the session is touched.
  size_t memory_limit_bytes = 0;
  NullSemantics null_semantics = NullSemantics::kNullEqualsNull;
  double efficiency_threshold = 0.01;
};

/// Outcome of one service call: either a populated ReplyBody (code ==
/// kNone) or a typed error with an optional secondary reason code (the
/// GuardianReasonCode for kMemoryRejected).
struct ServiceResult {
  ServiceError code = ServiceError::kNone;
  std::string reason_code;
  std::string message;
  ReplyBody reply;

  bool ok() const { return code == ServiceError::kNone; }
};

/// The multi-tenant FD profiling engine: a registry of named tables, each
/// owning one IncrementalHyFd session, serving concurrent typed requests.
///
/// Concurrency design (DESIGN.md §14):
///  * Every request is admitted (backpressure + shutdown check), submitted
///    to the shared worker pool, and waited on by the caller — callers get
///    synchronous semantics, the pool bounds execution parallelism.
///  * `registry_mu_` (reader/writer) guards only the name → entry map.
///    Requests take it shared just long enough to grab a shared_ptr to the
///    entry; create/drop take it exclusively. It is never held while a
///    session runs.
///  * Each entry's `mu` (reader/writer) guards that table's session. Writes
///    (ingest, mixed batches) and create/drop take it exclusively; the reads
///    (QueryFds, QueryUccs, FetchReport) take it shared and see the session
///    only as `const IncrementalHyFd&`, so reads of one table run in
///    parallel and answer from the session's maintained state. Lock order is
///    registry_mu_ strictly before entry mu, and no path holds two entry
///    locks — so two tables never wait on each other.
///  * Dropping a table erases it from the registry first (new lookups miss)
///    and then tombstones the entry under its own lock; an in-flight request
///    that already holds the old shared_ptr finds `dropped` and answers
///    kUnknownTable. Session teardown happens under the entry lock, strictly
///    after any in-flight request on that table finished.
class FdService {
 public:
  explicit FdService(ServiceConfig config = {});
  ~FdService();

  FdService(const FdService&) = delete;
  FdService& operator=(const FdService&) = delete;

  ServiceResult CreateTable(const CreateTableRequest& req);
  ServiceResult IngestBatch(const IngestBatchRequest& req);
  ServiceResult ApplyMixed(const ApplyMixedRequest& req);
  ServiceResult QueryFds(const QueryFdsRequest& req);
  ServiceResult QueryUccs(const TableRequest& req);
  ServiceResult FetchReport(const TableRequest& req);
  ServiceResult DropTable(const TableRequest& req);
  ServiceResult ListTables();

  /// Refuses new requests (kShuttingDown), waits for every in-flight
  /// request to finish, and joins the worker pool. Idempotent; also run by
  /// the destructor.
  void Shutdown();

  /// Estimated bytes of table state currently retained across all tenants —
  /// the committed side of the admission equation.
  size_t retained_bytes() const { return retained_bytes_.load(); }

  const ServiceConfig& config() const { return config_; }

 private:
  /// One tenant. The entry outlives its registry slot (shared_ptr), so a
  /// request racing a drop dies on `dropped`, never on a dangling session.
  struct TableEntry {
    SharedMutex mu;
    std::unique_ptr<IncrementalHyFd> session HYFD_GUARDED_BY(mu);
    bool dropped HYFD_GUARDED_BY(mu) = false;
    /// Estimated bytes this table retains (admission bookkeeping).
    std::atomic<size_t> retained_bytes{0};
  };

  /// Admission (backpressure/shutdown) + run `work` on the pool + wait.
  ServiceResult Execute(const std::function<ServiceResult()>& work);
  std::shared_ptr<TableEntry> FindTable(const std::string& name)
      HYFD_EXCLUDES(registry_mu_);

  const ServiceConfig config_;

  SharedMutex registry_mu_;
  std::unordered_map<std::string, std::shared_ptr<TableEntry>> tables_
      HYFD_GUARDED_BY(registry_mu_);

  Mutex state_mu_;
  size_t inflight_ HYFD_GUARDED_BY(state_mu_) = 0;
  bool shutting_down_ HYFD_GUARDED_BY(state_mu_) = false;
  CondVar drained_;

  std::atomic<size_t> retained_bytes_{0};

  /// Last: destroyed first, so the pool joins while the members its tasks
  /// touch are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hyfd::service

#endif  // HYFD_SERVICE_SERVICE_H_

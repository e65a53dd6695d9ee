// The service workload (service-mixed): an in-process ServiceServer with 4
// workers and 4 tables of the adult profile, driven by an open loop at a
// fixed offered rate over 4 client connections.
//
// Untraced runs measure request latency from each request's due time and
// verify every table against a serial IncrementalHyFd oracle replay. Traced
// runs also replay a prefix of the same schedule serially three times — over
// one socket connection, through an in-process FdService, and through bare
// IncrementalHyFd sessions (with HyUcc on LiveRelation()) — so that the
// differences give the transport, service and session times.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/hyucc.h"
#include "core/incremental.h"
#include "data/generators.h"
#include "data/relation.h"
#include "data/schema.h"
#include "fd/fd_set.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"

namespace perfbench {
namespace {

using namespace hyfd;
using namespace hyfd::service;

constexpr int kTables = 4;
constexpr int kConnections = 4;
constexpr size_t kWorkers = 4;
constexpr size_t kBaseRows = 20000;
constexpr int kColumns = 14;
/// Rows deleted, updated and inserted by each ApplyMixed batch: about 0.1%
/// of the live rows each, so the live count stays steady.
constexpr size_t kChurn = 20;
/// Offered load: about half the capacity (~65 requests/s) measured on a
/// 4-core x86-64 machine.
constexpr double kRate = 32;
/// Requests slower than this (from their due time) miss the goodput count.
constexpr double kLatencyLimitMs = 500;
/// The run is invalid when the generator hands requests over this late.
constexpr double kMaxGeneratorLateMs = 20;
/// Requests of the schedule's prefix replayed serially by traced runs.
constexpr size_t kReplayRequests = 300;

enum Type { kApplyMixed = 0, kQueryFds = 1, kFetchReport = 2, kQueryUccs = 3 };
constexpr int kNumTypes = 4;

struct Request {
  double due = 0;  // seconds from the start of the load
  Type type = kQueryFds;
  int table = 0;
  int batch = -1;  // index into the table's batches (ApplyMixed only)
};

/// Everything a run sends, derived from the seed alone.
struct Plan {
  std::vector<std::string> columns;
  std::vector<std::string> names;
  std::vector<Rows> base;                                // per table
  std::vector<std::vector<ApplyMixedRequest>> batches;   // per table, in order
  std::vector<Request> requests;                         // by due time
};

Row RowOf(const Relation& relation, size_t r) {
  Row row(static_cast<size_t>(relation.num_columns()));
  for (int c = 0; c < relation.num_columns(); ++c) {
    if (!relation.IsNull(r, c)) row[static_cast<size_t>(c)] = relation.Value(r, c);
  }
  return row;
}

Plan MakePlan(uint64_t seed, double rate, double seconds) {
  Plan plan;
  std::mt19937_64 rng(seed);
  std::vector<int> batches_per_table(kTables, 0);
  const std::vector<double> arrivals = ConstantRateArrivals(rate, seconds);
  // The mix per 20 requests: 12 ApplyMixed, 5 QueryFds, 2 FetchReport and
  // 1 QueryUccs; every 4 consecutive requests address each table once.
  const std::vector<int> types = StratifiedDraw({12, 5, 2, 1}, arrivals.size(), rng);
  const std::vector<int> tables =
      StratifiedDraw(std::vector<int>(kTables, 1), arrivals.size(), rng);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    Request request;
    request.due = arrivals[i];
    request.type = static_cast<Type>(types[i]);
    request.table = tables[i];
    if (request.type == kApplyMixed) {
      request.batch = batches_per_table[static_cast<size_t>(request.table)]++;
    }
    plan.requests.push_back(request);
  }

  for (int t = 0; t < kTables; ++t) {
    const size_t num_batches = static_cast<size_t>(batches_per_table[static_cast<size_t>(t)]);
    // One draw per table: the base rows, then a pool of fresh rows for the
    // batches' inserts and updates, all from the adult recipe at 20k rows.
    GeneratorConfig config;
    config.rows = kBaseRows + num_batches * 2 * kChurn;
    config.seed = seed * 1000003 + static_cast<uint64_t>(t);
    for (int c = 0; c < kColumns; ++c) config.columns.push_back(MixedColumn(c, kBaseRows));
    const Relation relation = Generate(config);
    if (t == 0) plan.columns = relation.schema().names();
    plan.names.push_back("table" + std::to_string(t));

    Rows base;
    for (size_t r = 0; r < kBaseRows; ++r) base.push_back(RowOf(relation, r));
    plan.base.push_back(std::move(base));

    // Physical ids as the session assigns them: base rows 0..n-1, then per
    // batch its inserts first and its updates' fresh versions after.
    std::vector<uint64_t> live(kBaseRows);
    for (size_t i = 0; i < kBaseRows; ++i) live[i] = i;
    uint64_t next_id = kBaseRows;
    size_t next_pool_row = kBaseRows;
    std::mt19937_64 table_rng(config.seed ^ 0xa5a5a5a5ULL);
    auto take_victim = [&] {
      const size_t k = table_rng() % live.size();
      const uint64_t id = live[k];
      live[k] = live.back();
      live.pop_back();
      return id;
    };
    std::vector<ApplyMixedRequest> batches;
    for (size_t b = 0; b < num_batches; ++b) {
      ApplyMixedRequest batch;
      batch.table = plan.names.back();
      for (size_t i = 0; i < kChurn; ++i) batch.deletes.push_back(take_victim());
      for (size_t i = 0; i < kChurn; ++i) {
        batch.updates.emplace_back(take_victim(), RowOf(relation, next_pool_row++));
      }
      for (size_t i = 0; i < kChurn; ++i) {
        batch.inserts.push_back(RowOf(relation, next_pool_row++));
      }
      for (size_t i = 0; i < 2 * kChurn; ++i) live.push_back(next_id++);
      batches.push_back(std::move(batch));
    }
    plan.batches.push_back(std::move(batches));
  }
  return plan;
}

const char* TypeName(Type type) {
  return RequestTypeNames()[static_cast<size_t>(type)].c_str();
}

// --- The three request paths ------------------------------------------------

ServiceError CallClient(ServiceClient& client, const Plan& plan,
                        const Request& request) {
  const std::string& table = plan.names[static_cast<size_t>(request.table)];
  switch (request.type) {
    case kApplyMixed: {
      const ApplyMixedRequest& batch =
          plan.batches[static_cast<size_t>(request.table)][static_cast<size_t>(request.batch)];
      return client.ApplyMixed(table, batch.inserts, batch.deletes, batch.updates).code;
    }
    case kQueryFds:
      return client.QueryFds(table).code;
    case kFetchReport:
      return client.FetchReport(table).code;
    case kQueryUccs:
      return client.QueryUccs(table).code;
  }
  return ServiceError::kInternal;
}

ServiceError CallService(FdService& service, const Plan& plan,
                         const Request& request) {
  const std::string& table = plan.names[static_cast<size_t>(request.table)];
  switch (request.type) {
    case kApplyMixed:
      return service.ApplyMixed(plan.batches[static_cast<size_t>(request.table)]
                                            [static_cast<size_t>(request.batch)])
          .code;
    case kQueryFds:
      return service.QueryFds(QueryFdsRequest{table}).code;
    case kFetchReport:
      return service.FetchReport(TableRequest{table}).code;
    case kQueryUccs:
      return service.QueryUccs(TableRequest{table}).code;
  }
  return ServiceError::kInternal;
}

void ApplyBatch(IncrementalHyFd& session, const ApplyMixedRequest& batch) {
  std::vector<RecordId> deletes(batch.deletes.begin(), batch.deletes.end());
  std::vector<std::pair<RecordId, Row>> updates;
  for (const auto& [id, row] : batch.updates) {
    updates.emplace_back(static_cast<RecordId>(id), row);
  }
  session.ApplyMixed(batch.inserts, deletes, updates);
}

std::unique_ptr<IncrementalHyFd> SeedSession(const Plan& plan, int table) {
  auto session = std::make_unique<IncrementalHyFd>(
      Relation::FromRows(Schema(plan.columns), {}));
  session->ApplyBatch(plan.base[static_cast<size_t>(table)]);
  return session;
}

/// Final state of one table: its FD set and live-content fingerprint.
struct TableState {
  FDSet fds;
  uint64_t fingerprint = 0;
  bool ok = false;
};

FDSet FdSetOf(const ReplyBody& reply) {
  FDSet set;
  for (const WireFd& fd : reply.fds) {
    AttributeSet lhs(kColumns);
    for (uint32_t attr : fd.lhs) lhs.Set(static_cast<int>(attr));
    set.Add(lhs, static_cast<int>(fd.rhs));
  }
  set.Canonicalize();
  return set;
}

TableState StateOf(const IncrementalHyFd& session) {
  return TableState{session.fds(), session.LiveRelation().ContentFingerprint(), true};
}

/// Runs fn(t) for every table on its own thread; exceptions become failures.
void ForEachTable(const std::function<void(int)>& fn, RunResult* result) {
  std::vector<std::string> errors(kTables);
  std::vector<std::thread> threads;
  for (int t = 0; t < kTables; ++t) {
    threads.emplace_back([&, t] {
      try {
        fn(t);
      } catch (const std::exception& e) {
        errors[static_cast<size_t>(t)] = e.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) result->Fail(error);
  }
}

/// Creates and seeds every table over `port`, one after another; returns
/// each table's seconds.
std::vector<double> SeedServer(uint16_t port, const Plan& plan) {
  std::vector<double> seconds;
  ServiceClient admin(port);
  for (int t = 0; t < kTables; ++t) {
    const auto start = Clock::now();
    const std::string& name = plan.names[static_cast<size_t>(t)];
    if (!admin.CreateTable(name, plan.columns).ok() ||
        !admin.IngestBatch(name, plan.base[static_cast<size_t>(t)]).ok()) {
      throw std::runtime_error("seeding " + name + " failed");
    }
    seconds.push_back(SecondsBetween(start, Clock::now()));
  }
  return seconds;
}

std::vector<TableState> ServerStates(uint16_t port, const Plan& plan) {
  std::vector<TableState> states(kTables);
  ServiceClient client(port);
  for (int t = 0; t < kTables; ++t) {
    ServiceClient::Outcome fds = client.QueryFds(plan.names[static_cast<size_t>(t)]);
    ServiceClient::Outcome report = client.FetchReport(plan.names[static_cast<size_t>(t)]);
    states[static_cast<size_t>(t)] = TableState{
        FdSetOf(fds.reply), report.reply.content_fingerprint, fds.ok() && report.ok()};
  }
  return states;
}

void CompareStates(const std::vector<TableState>& got,
                   const std::vector<TableState>& want, const char* what,
                   RunResult* result) {
  for (size_t t = 0; t < got.size(); ++t) {
    ++result->attempted;
    if (!got[t].ok || !want[t].ok) {
      result->Fail(std::string(what) + ": table" + std::to_string(t) +
                   " state unavailable");
    } else if (!(got[t].fds == want[t].fds)) {
      result->Fail(std::string(what) + ": FD divergence on table" + std::to_string(t));
    } else if (got[t].fingerprint != want[t].fingerprint) {
      result->Fail(std::string(what) + ": content fingerprint divergence on table" +
                   std::to_string(t));
    }
  }
}

// --- The open loop -------------------------------------------------------------

struct Completed {
  RequestTimes times;
  /// Stays kInternal for a request no connection managed to send.
  ServiceError code = ServiceError::kInternal;
};

/// Sends every request of the plan at its due time over kConnections client
/// connections. Any free connection takes the oldest request it may send;
/// a table's ApplyMixed batches go out one at a time, in schedule order, so
/// the server applies them in the order the oracle replays them.
std::vector<Completed> RunOpenLoop(uint16_t port, const Plan& plan,
                                   RunResult* result) {
  std::vector<Completed> completed(plan.requests.size());
  std::vector<std::string> connection_errors(kConnections);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> queue;
  std::vector<bool> write_in_flight(kTables, false);
  bool closed = false;

  auto eligible = [&](size_t i) {
    const Request& r = plan.requests[i];
    return r.type != kApplyMixed || !write_in_flight[static_cast<size_t>(r.table)];
  };
  auto serve = [&] {
    ServiceClient client(port);
    while (true) {
      size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        std::deque<size_t>::iterator it;
        cv.wait(lock, [&] {
          it = std::find_if(queue.begin(), queue.end(), eligible);
          return it != queue.end() || (closed && queue.empty());
        });
        if (it == queue.end()) return;
        index = *it;
        queue.erase(it);
        const Request& r = plan.requests[index];
        if (r.type == kApplyMixed) write_in_flight[static_cast<size_t>(r.table)] = true;
      }
      const Request& request = plan.requests[index];
      completed[index].code = CallClient(client, plan, request);
      completed[index].times.done = Clock::now();
      if (request.type == kApplyMixed) {
        std::lock_guard<std::mutex> lock(mu);
        write_in_flight[static_cast<size_t>(request.table)] = false;
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> connections;
  for (int c = 0; c < kConnections; ++c) {
    connections.emplace_back([&, c] {
      try {
        serve();
      } catch (const std::exception& e) {
        connection_errors[static_cast<size_t>(c)] = e.what();
      }
    });
  }
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(plan.requests[i].due));
    std::this_thread::sleep_until(due);
    {
      std::lock_guard<std::mutex> lock(mu);
      completed[i].times.due = due;
      completed[i].times.issued = Clock::now();
      queue.push_back(i);
    }
    cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& connection : connections) connection.join();
  for (const std::string& error : connection_errors) {
    if (!error.empty()) result->Fail("client connection: " + error);
  }
  return completed;
}

// --- Serial replays (traced runs) ------------------------------------------------

using TypeSamples = std::vector<std::vector<double>>;  // per type, ms

double MedianOf(const TypeSamples& samples, int type) {
  return Median(samples[static_cast<size_t>(type)]);
}

}  // namespace

RunResult RunService(const Options& options) {
  RunResult result;
  Plan plan = MakePlan(options.seed, kRate, options.seconds);
  size_t writes = 0;
  for (const Request& r : plan.requests) writes += r.type == kApplyMixed ? 1 : 0;
  std::printf("service-mixed seed %ju: %zu requests (%zu writes) at %.0f/s over %.0f s, "
              "%d tables x %zu rows x %d columns, latency limit %.0f ms\n",
              static_cast<uintmax_t>(options.seed), plan.requests.size(), writes, kRate,
              options.seconds, kTables, kBaseRows, kColumns, kLatencyLimitMs);

  // --- Set-up: create the tables and ingest the base rows. ------------------
  ServerConfig config;
  config.service.num_workers = kWorkers;
  config.service.memory_limit_bytes = 0;  // admission refuses nothing by design
  config.max_connections = kConnections + kTables + 2;
  auto server = std::make_unique<ServiceServer>(config);
  server->Start();
  const std::vector<double> setup_seconds = SeedServer(server->port(), plan);

  // --- Load. ---------------------------------------------------------------
  const auto load_start = Clock::now();
  const std::vector<Completed> completed = RunOpenLoop(server->port(), plan, &result);
  const double load_seconds = SecondsBetween(load_start, Clock::now());
  // Read before the oracle replay below, whose sessions are the checker's
  // memory, not the server's.
  const double peak_rss_mb = PeakRssMb();

  TypeSamples open_loop(kNumTypes);
  std::vector<double> all, write_ms, read_ms, late_ms;
  std::map<std::string, uint64_t> failures;
  size_t within_limit = 0;
  for (size_t i = 0; i < completed.size(); ++i) {
    const Request& request = plan.requests[i];
    const double ms = completed[i].times.LatencySeconds() * 1e3;
    ++result.attempted;
    late_ms.push_back(completed[i].times.LatenessSeconds() * 1e3);
    if (completed[i].code != ServiceError::kNone) {
      ++failures[ServiceErrorName(completed[i].code)];
      result.Fail(std::string(TypeName(request.type)) + " on " +
                  plan.names[static_cast<size_t>(request.table)] + " failed: " +
                  ServiceErrorName(completed[i].code));
      continue;
    }
    open_loop[static_cast<size_t>(request.type)].push_back(ms);
    all.push_back(ms);
    (request.type == kApplyMixed ? write_ms : read_ms).push_back(ms);
    if (ms <= kLatencyLimitMs) ++within_limit;
  }
  const double late_p99 = Percentile(late_ms, 99);
  // Goodput over the load's wall time, from the first due time to the last
  // completion, so a growing backlog lowers it.
  const double goodput = static_cast<double>(within_limit) / load_seconds;
  std::printf("%s\n", DescribeTiming("set-up per table", setup_seconds, "s").c_str());
  std::printf("load: %zu requests in %.2f s; %s\n", completed.size(), load_seconds,
              DescribeTiming("generator lateness", late_ms, "ms").c_str());
  std::printf("  %s\n  %s\n  %s\n", DescribeTiming("all", all, "ms").c_str(),
              DescribeTiming("write", write_ms, "ms").c_str(),
              DescribeTiming("read", read_ms, "ms").c_str());
  for (int type = 0; type < kNumTypes; ++type) {
    std::printf("  %s\n", DescribeTiming(TypeName(static_cast<Type>(type)),
                                         open_loop[static_cast<size_t>(type)], "ms")
                              .c_str());
  }
  if (late_p99 > kMaxGeneratorLateMs) {
    result.Fail("invalid run: the generator fell behind its schedule (p99 lateness " +
                std::to_string(late_p99) + " ms)");
  }

  // --- Output check: every table against a serial oracle replay. -----------
  std::vector<TableState> oracle(kTables);
  {
    std::vector<std::vector<const ApplyMixedRequest*>> applied(kTables);
    for (const Request& r : plan.requests) {
      if (r.type != kApplyMixed) continue;
      applied[static_cast<size_t>(r.table)].push_back(
          &plan.batches[static_cast<size_t>(r.table)][static_cast<size_t>(r.batch)]);
    }
    if (options.corrupt_expected && !applied[0].empty()) applied[0].pop_back();
    ForEachTable(
        [&](int t) {
          std::unique_ptr<IncrementalHyFd> session = SeedSession(plan, t);
          for (const ApplyMixedRequest* batch : applied[static_cast<size_t>(t)]) {
            ApplyBatch(*session, *batch);
          }
          oracle[static_cast<size_t>(t)] = StateOf(*session);
        },
        &result);
  }
  CompareStates(ServerStates(server->port(), plan), oracle, "open loop vs oracle",
                &result);
  server->Stop();
  server.reset();

  if (!options.trace) {
    result.Set("setup_s", Median(setup_seconds), "s");
    result.Set("p50_ms", Median(all), "ms");
    result.Set("ops_per_s", goodput, "1/s");
    result.Set("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }

  for (const auto& [name, unit] : PerLayerMetrics()) result.Set(name, 0, unit);
  result.Set("service.write_p50_ms", Median(write_ms), "ms");
  result.Set("service.read_p50_ms", Median(read_ms), "ms");
  if (PercentileSupported(write_ms.size(), 95)) {
    result.Set("service.write_p95_ms", Percentile(write_ms, 95), "ms");
  }
  if (PercentileSupported(read_ms.size(), 95)) {
    result.Set("service.read_p95_ms", Percentile(read_ms, 95), "ms");
  }
  result.Set("service.goodput_rps", goodput, "1/s");
  result.Set("service.generator_late_p99_ms", late_p99, "ms");
  for (const auto& [name, count] : failures) {
    result.Set("service.failed." + name, static_cast<double>(count), "count");
  }

  const std::vector<Request> prefix(
      plan.requests.begin(),
      plan.requests.begin() +
          static_cast<std::ptrdiff_t>(std::min(kReplayRequests, plan.requests.size())));

  // (a) Serial replay over one socket connection.
  TypeSamples socket_ms(kNumTypes);
  std::vector<TableState> socket_states;
  double socket_wall = 0;
  {
    ServiceServer replay_server(config);
    replay_server.Start();
    SeedServer(replay_server.port(), plan);
    ServiceClient client(replay_server.port());
    const auto start = Clock::now();
    for (const Request& request : prefix) {
      const auto t0 = Clock::now();
      const ServiceError code = CallClient(client, plan, request);
      socket_ms[static_cast<size_t>(request.type)].push_back(
          SecondsBetween(t0, Clock::now()) * 1e3);
      if (code != ServiceError::kNone) result.Fail("socket replay request failed");
    }
    socket_wall = SecondsBetween(start, Clock::now());
    socket_states = ServerStates(replay_server.port(), plan);
    replay_server.Stop();
  }

  // (b) Serial replay through an in-process FdService.
  TypeSamples exec_ms(kNumTypes);
  std::vector<TableState> service_states(kTables);
  {
    FdService service(config.service);
    ForEachTable(
        [&](int t) {
          const std::string& name = plan.names[static_cast<size_t>(t)];
          if (!service.CreateTable(CreateTableRequest{name, plan.columns}).ok() ||
              !service.IngestBatch(IngestBatchRequest{name, plan.base[static_cast<size_t>(t)]})
                   .ok()) {
            throw std::runtime_error("seeding " + name + " in FdService failed");
          }
        },
        &result);
    for (const Request& request : prefix) {
      const auto t0 = Clock::now();
      const ServiceError code = CallService(service, plan, request);
      exec_ms[static_cast<size_t>(request.type)].push_back(
          SecondsBetween(t0, Clock::now()) * 1e3);
      if (code != ServiceError::kNone) result.Fail("FdService replay request failed");
    }
    for (int t = 0; t < kTables; ++t) {
      const std::string& name = plan.names[static_cast<size_t>(t)];
      ServiceResult fds = service.QueryFds(QueryFdsRequest{name});
      ServiceResult report = service.FetchReport(TableRequest{name});
      service_states[static_cast<size_t>(t)] =
          TableState{FdSetOf(fds.reply), report.reply.content_fingerprint,
                     fds.ok() && report.ok()};
    }
  }

  // (c) Serial replay through bare sessions, with HyUcc on LiveRelation().
  Tracer tracer;
  std::vector<double> apply_ms, live_copy_ms, hyucc_ms;
  std::map<std::string, uint64_t> counts;
  std::vector<TableState> session_states(kTables);
  {
    std::vector<std::unique_ptr<IncrementalHyFd>> sessions(kTables);
    ForEachTable([&](int t) { sessions[static_cast<size_t>(t)] = SeedSession(plan, t); },
                 &result);
    auto timed = [&](const char* span, std::vector<double>* samples,
                     const std::function<void()>& fn) {
      const int id = tracer.Begin(span);
      fn();
      tracer.End(id);
      const Tracer::Span& s = tracer.spans()[static_cast<size_t>(id)];
      samples->push_back(SecondsBetween(s.start, s.end) * 1e3);
    };
    for (const Request& request : prefix) {
      IncrementalHyFd& session = *sessions[static_cast<size_t>(request.table)];
      switch (request.type) {
        case kApplyMixed: {
          timed("session.apply_mixed", &apply_ms, [&] {
            ApplyBatch(session, plan.batches[static_cast<size_t>(request.table)]
                                            [static_cast<size_t>(request.batch)]);
          });
          const IncrementalBatchStats& stats = session.last_batch_stats();
          counts["incremental.touched_clusters"] += stats.touched_clusters;
          counts["incremental.validations"] += stats.validations;
          counts["incremental.comparisons"] += stats.comparisons;
          counts["incremental.fds_generalized"] += stats.fds_generalized;
          break;
        }
        case kQueryFds:
          break;  // reads the session's FD set; no session work to time
        case kFetchReport:
          timed("session.live_copy", &live_copy_ms,
                [&] { (void)session.LiveRelation().ContentFingerprint(); });
          break;
        case kQueryUccs: {
          Relation live = session.LiveRelation();
          timed("hyucc.discover", &hyucc_ms, [&] {
            HyUcc hyucc;
            (void)hyucc.Discover(live);
          });
          break;
        }
      }
    }
    for (int t = 0; t < kTables; ++t) {
      session_states[static_cast<size_t>(t)] = StateOf(*sessions[static_cast<size_t>(t)]);
    }
  }
  CompareStates(socket_states, session_states, "socket replay vs session replay",
                &result);
  CompareStates(service_states, session_states, "FdService replay vs session replay",
                &result);

  for (int type = 0; type < kNumTypes; ++type) {
    const std::string name = TypeName(static_cast<Type>(type));
    const double exec = MedianOf(exec_ms, type);
    const double socket = MedianOf(socket_ms, type);
    result.Set("service.exec_ms." + name, exec, "ms");
    result.Set("net.rtt_ms." + name, socket - exec, "ms");
    result.Set("service.wait_ms." + name, MedianOf(open_loop, type) - socket, "ms");
  }
  result.Set("session.apply_mixed_ms", Median(apply_ms), "ms");
  result.Set("session.live_copy_ms", Median(live_copy_ms), "ms");
  result.Set("hyucc.discover_ms", Median(hyucc_ms), "ms");
  for (const auto& [name, value] : counts) {
    result.Set(name, static_cast<double>(value), "count");
  }

  // The socket replay is the full serial stack: its wall time splits into
  // per-request latencies (transport + service + session) and the replay
  // loop's own time between requests, which no layer covers.
  double socket_sum_ms = 0;
  for (const auto& samples : socket_ms) {
    for (double ms : samples) socket_sum_ms += ms;
  }
  result.Set("trace.total_s", socket_wall, "s");
  result.Set("trace.uncovered_s", socket_wall - socket_sum_ms / 1e3, "s");
  // Tracing cost: the session replay's spans, priced by timing empty spans.
  {
    Tracer probe;
    const auto start = Clock::now();
    for (int i = 0; i < 1000; ++i) ScopedSpan span(&probe, "probe");
    const double per_span = SecondsBetween(start, Clock::now()) / 1000;
    result.Set("trace.overhead_s", per_span * static_cast<double>(tracer.spans().size()),
               "s");
  }

  const std::vector<std::string> drifted = CheckCountsAcrossRuns(
      options,
      "service-mixed-" + std::to_string(options.seed) + "-" +
          std::to_string(prefix.size()),
      counts);
  for (const std::string& name : drifted) {
    result.Fail("count " + name + " drifted from an earlier run with this seed");
  }
  result.Set("trace.count_drift", static_cast<double>(drifted.size()), "count");
  return result;
}

}  // namespace perfbench

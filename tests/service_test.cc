// The multi-tenant FD profiling service, proven three ways:
//
//  * A concurrent stress/differential harness: N client threads × M tables
//    over real sockets, randomized interleaved CRUD, and after the dust
//    settles every table's FD/UCC sets and content fingerprint must be
//    bit-identical to a single-threaded IncrementalHyFd oracle replaying the
//    same per-table schedule. Runs under the TSan CI job (label
//    "concurrency").
//  * A protocol negative corpus in the spirit of table_io_test.cc: truncated
//    frames, bad magic/version/type, checksum mismatch, oversized length,
//    mid-frame disconnects — every one answered with a typed error (or a
//    clean close), never a crash, never a partially-mutated session.
//  * Lifecycle & backpressure: drop-while-ingesting, concurrent create
//    races, guardian-driven admission rejection, shutdown draining.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/guardian.h"
#include "core/hyfd.h"
#include "core/hyucc.h"
#include "core/incremental.h"
#include "data/generators.h"
#include "data/relation.h"
#include "data/schema.h"
#include "gtest/gtest.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "test_util.h"
#include "util/run_report.h"

namespace hyfd::service {
namespace {

using hyfd::testing::ExpectSameFds;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

Row RandomRow(int cols, std::mt19937_64& rng, int domain = 4) {
  Row row(static_cast<size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    if (rng() % 16 == 0) {
      row[static_cast<size_t>(c)] = std::nullopt;
    } else {
      row[static_cast<size_t>(c)] =
          "v" + std::to_string(rng() % static_cast<uint64_t>(domain));
    }
  }
  return row;
}

Rows RandomRows(int cols, size_t n, std::mt19937_64& rng) {
  Rows rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) rows.push_back(RandomRow(cols, rng));
  return rows;
}

/// One mutation of a table's schedule — always expressed as a mixed batch so
/// the harness exercises the whole CRUD surface through one entry point.
struct Op {
  Rows inserts;
  std::vector<uint64_t> deletes;
  std::vector<std::pair<uint64_t, Row>> updates;
};

/// Generates a deterministic CRUD schedule, simulating the session's
/// physical id assignment (inserts first, then updates' fresh versions) so
/// delete/update ids always name live rows.
std::vector<Op> MakeSchedule(int cols, size_t num_ops, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  std::vector<uint64_t> live;
  uint64_t next_id = 0;
  for (size_t i = 0; i < num_ops; ++i) {
    Op op;
    op.inserts = RandomRows(cols, 2 + rng() % 5, rng);
    // Draw disjoint victims for deletes and updates from the pre-op live set.
    std::vector<uint64_t> victims = live;
    for (size_t v = victims.size(); v > 1; --v) {
      std::swap(victims[v - 1], victims[rng() % v]);
    }
    size_t want_deletes = victims.empty() ? 0 : rng() % 3;
    size_t want_updates = victims.empty() ? 0 : rng() % 2;
    size_t taken = 0;
    for (size_t d = 0; d < want_deletes && taken < victims.size(); ++d) {
      op.deletes.push_back(victims[taken++]);
    }
    for (size_t u = 0; u < want_updates && taken < victims.size(); ++u) {
      op.updates.emplace_back(victims[taken++], RandomRow(cols, rng));
    }
    // Simulate the session's id bookkeeping.
    for (uint64_t id : op.deletes) {
      live.erase(std::find(live.begin(), live.end(), id));
    }
    for (const auto& [id, row] : op.updates) {
      live.erase(std::find(live.begin(), live.end(), id));
    }
    for (size_t k = 0; k < op.inserts.size(); ++k) live.push_back(next_id++);
    for (size_t k = 0; k < op.updates.size(); ++k) live.push_back(next_id++);
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<RecordId> Narrow(const std::vector<uint64_t>& ids) {
  std::vector<RecordId> out;
  out.reserve(ids.size());
  for (uint64_t id : ids) out.push_back(static_cast<RecordId>(id));
  return out;
}

/// Replays the whole schedule into a fresh single-threaded session — the
/// differential oracle. (unique_ptr: sessions are neither copyable nor
/// movable.)
std::unique_ptr<IncrementalHyFd> MakeOracle(
    const std::vector<std::string>& columns, const std::vector<Op>& ops) {
  auto oracle =
      std::make_unique<IncrementalHyFd>(Relation::FromRows(Schema(columns), {}));
  for (const Op& op : ops) {
    std::vector<std::pair<RecordId, Row>> updates;
    updates.reserve(op.updates.size());
    for (const auto& [id, row] : op.updates) {
      updates.emplace_back(static_cast<RecordId>(id), row);
    }
    oracle->ApplyMixed(op.inserts, Narrow(op.deletes), updates);
  }
  return oracle;
}

FDSet ToFdSet(const ReplyBody& reply, int cols) {
  FDSet set;
  for (const WireFd& fd : reply.fds) {
    AttributeSet lhs(cols);
    for (uint32_t attr : fd.lhs) lhs.Set(static_cast<int>(attr));
    set.Add(lhs, static_cast<int>(fd.rhs));
  }
  set.Canonicalize();
  return set;
}

std::vector<AttributeSet> ToUccs(const ReplyBody& reply, int cols) {
  std::vector<AttributeSet> uccs;
  for (const auto& wire : reply.uccs) {
    AttributeSet ucc(cols);
    for (uint32_t attr : wire) ucc.Set(static_cast<int>(attr));
    uccs.push_back(std::move(ucc));
  }
  return uccs;
}

std::vector<AttributeSet> OracleUccs(const IncrementalHyFd& oracle) {
  HyUcc hyucc;
  return hyucc.Discover(oracle.LiveRelation());
}

/// Frame header with every field caller-controlled (corpus construction).
std::string RawHeader(const char* magic, uint32_t version, uint32_t type,
                      uint64_t payload_bytes, uint64_t checksum) {
  std::string out(magic, 8);
  WireWriter w;
  w.U32(version);
  w.U32(type);
  w.U64(payload_bytes);
  w.U64(checksum);
  out += w.bytes();
  return out;
}

/// Sends raw bytes and expects one kError response with `code`, followed by
/// the server closing the connection.
void ExpectBadFrameThenClose(ServiceClient& client, const std::string& bytes) {
  ASSERT_TRUE(client.SendBytes(bytes));
  std::optional<Frame> response = client.ReadResponse();
  ASSERT_TRUE(response.has_value()) << "server closed without a typed error";
  ASSERT_EQ(response->type, MessageType::kError);
  ErrorBody body = DecodeError(response->payload);
  EXPECT_EQ(body.code, ServiceError::kBadFrame) << body.message;
  EXPECT_EQ(body.code_name, "bad_frame");
  // The stream is poisoned: the server hangs up after answering.
  EXPECT_FALSE(client.ReadResponse().has_value());
}

// ---------------------------------------------------------------------------
// In-process engine: differential smoke + typed errors
// ---------------------------------------------------------------------------

TEST(ServiceEngine, CrudMatchesOracleInProcess) {
  const std::vector<std::string> columns = Schema::Generic(3).names();
  const std::vector<Op> ops = MakeSchedule(3, 8, /*seed=*/42);

  FdService svc;
  ASSERT_TRUE(svc.CreateTable({"t", columns}).ok());
  for (const Op& op : ops) {
    ServiceResult r = svc.ApplyMixed({"t", op.inserts, op.deletes, op.updates});
    ASSERT_TRUE(r.ok()) << r.message;
  }

  std::unique_ptr<IncrementalHyFd> oracle = MakeOracle(columns, ops);

  ServiceResult fds = svc.QueryFds({"t"});
  ASSERT_TRUE(fds.ok());
  ExpectSameFds(oracle->fds(), ToFdSet(fds.reply, 3), "in-process service");
  EXPECT_EQ(fds.reply.status.live_rows, oracle->num_live_rows());
  EXPECT_EQ(fds.reply.status.num_batches,
            static_cast<uint64_t>(oracle->num_batches()));

  ServiceResult uccs = svc.QueryUccs({"t"});
  ASSERT_TRUE(uccs.ok());
  EXPECT_EQ(ToUccs(uccs.reply, 3), OracleUccs(*oracle));

  ServiceResult report = svc.FetchReport({"t"});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.reply.content_fingerprint,
            oracle->LiveRelation().ContentFingerprint());
  // The report channel carries a schema-valid RunReport document.
  EXPECT_TRUE(RunReport::ValidateJsonSchema(report.reply.report_json).empty());

  ASSERT_TRUE(svc.DropTable({"t"}).ok());
  EXPECT_EQ(svc.QueryFds({"t"}).code, ServiceError::kUnknownTable);
}

TEST(ServiceEngine, LhsFilterRestrictsFds) {
  FdService svc;
  const std::vector<std::string> columns = Schema::Generic(4).names();
  ASSERT_TRUE(svc.CreateTable({"t", columns}).ok());
  std::mt19937_64 rng(7);
  ASSERT_TRUE(svc.IngestBatch({"t", RandomRows(4, 40, rng)}).ok());

  ServiceResult all = svc.QueryFds({"t"});
  ASSERT_TRUE(all.ok());
  QueryFdsRequest filtered_req;
  filtered_req.table = "t";
  filtered_req.has_lhs_filter = true;
  filtered_req.lhs_filter = {0, 2};
  ServiceResult filtered = svc.QueryFds(filtered_req);
  ASSERT_TRUE(filtered.ok());

  AttributeSet allowed(4, {0, 2});
  FDSet expected;
  for (const FD& fd : ToFdSet(all.reply, 4)) {
    if (fd.lhs.IsSubsetOf(allowed)) expected.Add(fd);
  }
  expected.Canonicalize();
  ExpectSameFds(expected, ToFdSet(filtered.reply, 4), "lhs filter");

  filtered_req.lhs_filter = {9};  // out of range for a 4-column table
  EXPECT_EQ(svc.QueryFds(filtered_req).code, ServiceError::kInvalidArgument);
}

TEST(ServiceEngine, TypedArgumentErrors) {
  FdService svc;
  EXPECT_EQ(svc.CreateTable({"", {"A"}}).code, ServiceError::kInvalidArgument);
  EXPECT_EQ(svc.CreateTable({"t", {}}).code, ServiceError::kInvalidArgument);
  EXPECT_EQ(svc.CreateTable({"t", {"A", "A"}}).code,
            ServiceError::kInvalidArgument);
  ASSERT_TRUE(svc.CreateTable({"t", {"A", "B"}}).ok());
  EXPECT_EQ(svc.CreateTable({"t", {"A"}}).code, ServiceError::kTableExists);
  // Session-level contract violations surface as kInvalidArgument and, per
  // the CRUD contract, leave the session untouched.
  EXPECT_EQ(svc.IngestBatch({"t", {{std::nullopt}}}).code,
            ServiceError::kInvalidArgument);  // wrong row width
  ApplyMixedRequest bad_delete;
  bad_delete.table = "t";
  bad_delete.deletes = {123};  // no such physical row
  EXPECT_EQ(svc.ApplyMixed(bad_delete).code, ServiceError::kInvalidArgument);
  ServiceResult fds = svc.QueryFds({"t"});
  ASSERT_TRUE(fds.ok());
  EXPECT_EQ(fds.reply.status.total_rows, 0u);
}

TEST(ServiceEngine, MaxTablesIsEnforced) {
  ServiceConfig config;
  config.max_tables = 2;
  FdService svc(config);
  ASSERT_TRUE(svc.CreateTable({"a", {"A"}}).ok());
  ASSERT_TRUE(svc.CreateTable({"b", {"A"}}).ok());
  EXPECT_EQ(svc.CreateTable({"c", {"A"}}).code, ServiceError::kTooManyTables);
  ASSERT_TRUE(svc.DropTable({"a"}).ok());
  EXPECT_TRUE(svc.CreateTable({"c", {"A"}}).ok());
}

// ---------------------------------------------------------------------------
// Guardian reason codes (the machine-readable rejection channel)
// ---------------------------------------------------------------------------

TEST(GuardianReason, AdmitWorkArithmetic) {
  using GR = GuardianReason;
  EXPECT_EQ(MemoryGuardian::AdmitWork(0, 1 << 20, 0), GR::kNone)
      << "limit 0 = unlimited";
  EXPECT_EQ(MemoryGuardian::AdmitWork(0, 10, 100), GR::kNone);
  EXPECT_EQ(MemoryGuardian::AdmitWork(90, 10, 100), GR::kNone);
  EXPECT_EQ(MemoryGuardian::AdmitWork(90, 11, 100), GR::kAdmissionDenied);
  EXPECT_EQ(MemoryGuardian::AdmitWork(101, 0, 100), GR::kAdmissionDenied)
      << "already over budget: no estimate underflow";
  EXPECT_STREQ(GuardianReasonCode(GR::kNone), "guardian.none");
  EXPECT_STREQ(GuardianReasonCode(GR::kLhsCapPruned),
               "guardian.lhs_cap_pruned");
  EXPECT_STREQ(GuardianReasonCode(GR::kBudgetUnenforceable),
               "guardian.budget_unenforceable");
  EXPECT_STREQ(GuardianReasonCode(GR::kAdmissionDenied),
               "guardian.admission_denied");
}

// Regression: guardian-degraded runs used to surface only `complete=false`;
// callers had to parse prose to learn why. The reason now rides the report
// as a machine-readable counter and inside the degradation message.
TEST(GuardianReason, ReportCarriesReasonCode) {
  // fd-reduced data puts minimal FDs deep in the lattice, so a 1-byte limit
  // must prune (same setup as HyFdTest.GuardianTruncationIsReported).
  Relation relation = GenerateFdReduced(150, 8, 4, 19);
  HyFdConfig config;
  config.memory_limit_bytes = 1;  // absurdly small: forces pruning
  HyFd algo(config);
  algo.Discover(relation);
  const RunReport& report = algo.report();
  ASSERT_FALSE(report.complete);
  auto code = report.FindCounter("guardian.reason_code");
  ASSERT_TRUE(code.has_value());
  EXPECT_NE(*code, static_cast<uint64_t>(GuardianReason::kNone));
  ASSERT_FALSE(report.degradation_reasons.empty());
  // The message names the counter's code.
  EXPECT_NE(report.degradation_reasons[0].find(
                GuardianReasonCode(static_cast<GuardianReason>(*code))),
            std::string::npos);

  // An unconstrained run still emits the counter, as kNone.
  HyFd relaxed{HyFdConfig{}};
  relaxed.Discover(relation);
  auto none = relaxed.report().FindCounter("guardian.reason_code");
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(*none, static_cast<uint64_t>(GuardianReason::kNone));
}

TEST(GuardianReason, AdmissionRejectionLeavesSessionUntouched) {
  ServiceConfig config;
  config.memory_limit_bytes = 4096;
  FdService svc(config);
  ASSERT_TRUE(svc.CreateTable({"t", {"A", "B"}}).ok());
  ASSERT_TRUE(svc.IngestBatch({"t", {{"1", "x"}, {"2", "y"}}}).ok());

  ServiceResult before = svc.FetchReport({"t"});
  ASSERT_TRUE(before.ok());
  FDSet fds_before = ToFdSet(svc.QueryFds({"t"}).reply, 2);

  // A batch whose estimate cannot fit the remaining budget.
  Rows huge;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 200; ++i) huge.push_back(RandomRow(2, rng));
  ServiceResult rejected = svc.IngestBatch({"t", huge});
  EXPECT_EQ(rejected.code, ServiceError::kMemoryRejected);
  EXPECT_EQ(rejected.reason_code, "guardian.admission_denied");

  // Rejected up-front: FD set, counters, and content fingerprint are
  // byte-identical to before the attempt.
  ServiceResult after = svc.FetchReport({"t"});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.reply.content_fingerprint, before.reply.content_fingerprint);
  EXPECT_EQ(after.reply.status, before.reply.status);
  ExpectSameFds(fds_before, ToFdSet(svc.QueryFds({"t"}).reply, 2),
                "rejected batch");
}

// ---------------------------------------------------------------------------
// Wire protocol: codec round-trips + negative corpus
// ---------------------------------------------------------------------------

TEST(ServiceProtocol, RequestCodecsRoundTrip) {
  CreateTableRequest create{"t", {"A", "B", "C"}};
  CreateTableRequest create2 = DecodeCreateTable(EncodeCreateTable(create));
  EXPECT_EQ(create2.table, "t");
  EXPECT_EQ(create2.columns, create.columns);

  IngestBatchRequest ingest{"t", {{"1", std::nullopt}, {"2", "b"}}};
  IngestBatchRequest ingest2 = DecodeIngestBatch(EncodeIngestBatch(ingest));
  EXPECT_EQ(ingest2.rows, ingest.rows);

  ApplyMixedRequest mixed;
  mixed.table = "t";
  mixed.inserts = {{"x", "y"}};
  mixed.deletes = {3, 7};
  mixed.updates = {{1, {std::nullopt, "z"}}};
  ApplyMixedRequest mixed2 = DecodeApplyMixed(EncodeApplyMixed(mixed));
  EXPECT_EQ(mixed2.inserts, mixed.inserts);
  EXPECT_EQ(mixed2.deletes, mixed.deletes);
  EXPECT_EQ(mixed2.updates, mixed.updates);

  QueryFdsRequest query{"t", true, {0, 2}};
  QueryFdsRequest query2 = DecodeQueryFds(EncodeQueryFds(query));
  EXPECT_TRUE(query2.has_lhs_filter);
  EXPECT_EQ(query2.lhs_filter, query.lhs_filter);

  ReplyBody reply;
  reply.request = MessageType::kQueryFds;
  reply.status.num_fds = 2;
  reply.status.relation_version = 9;
  reply.fds = {{{0, 1}, 2}, {{2}, 0}};
  reply.uccs = {{0, 1}};
  reply.report_json = "{}";
  reply.content_fingerprint = 0xabcdef;
  reply.tables = {"a", "b"};
  ReplyBody reply2 = DecodeReply(EncodeReply(reply));
  EXPECT_EQ(reply2.request, reply.request);
  EXPECT_EQ(reply2.status, reply.status);
  EXPECT_EQ(reply2.fds, reply.fds);
  EXPECT_EQ(reply2.uccs, reply.uccs);
  EXPECT_EQ(reply2.content_fingerprint, reply.content_fingerprint);
  EXPECT_EQ(reply2.tables, reply.tables);
}

TEST(ServiceProtocol, DecodersRejectStructuralViolations) {
  // Truncation at every prefix of a valid payload must throw, never read
  // out of bounds (the table_io corpus rule applied to the wire).
  ApplyMixedRequest mixed;
  mixed.table = "table";
  mixed.inserts = {{"x", std::nullopt}};
  mixed.deletes = {1};
  mixed.updates = {{0, {"a", "b"}}};
  const std::string payload = EncodeApplyMixed(mixed);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(DecodeApplyMixed(payload.substr(0, cut)), ProtocolError)
        << "prefix " << cut;
  }
  // Trailing bytes are a violation too.
  EXPECT_THROW(DecodeApplyMixed(payload + "x"), ProtocolError);

  // A count that cannot fit in the remaining bytes fails before allocating.
  WireWriter w;
  w.Str("t");
  w.U64(uint64_t{1} << 60);  // rows
  EXPECT_THROW(DecodeIngestBatch(w.bytes()), ProtocolError);

  // Optional-cell flags other than 0/1 are corruption, not "truthy".
  WireWriter bad_flag;
  bad_flag.Str("t");
  bad_flag.U64(1);
  bad_flag.U32(1);
  bad_flag.U8(2);
  EXPECT_THROW(DecodeIngestBatch(bad_flag.bytes()), ProtocolError);
}

TEST(ServiceProtocol, FrameHeaderValidation) {
  const std::string payload = EncodeTableRequest({"t"});
  std::string frame = EncodeFrame(MessageType::kDropTable, payload);
  FrameHeader header = ParseFrameHeader(frame.data());
  EXPECT_EQ(header.type, MessageType::kDropTable);
  EXPECT_EQ(header.payload_bytes, payload.size());
  VerifyPayloadChecksum(header, payload);  // must not throw

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_THROW(ParseFrameHeader(bad_magic.data()), ProtocolError);

  std::string bad_version = frame;
  bad_version[8] = 99;
  EXPECT_THROW(ParseFrameHeader(bad_version.data()), ProtocolError);

  std::string bad_type = frame;
  bad_type[12] = 55;
  EXPECT_THROW(ParseFrameHeader(bad_type.data()), ProtocolError);

  EXPECT_THROW(VerifyPayloadChecksum(header, payload + "x"), ProtocolError);
  std::string flipped = payload;
  flipped[0] ^= 1;
  EXPECT_THROW(VerifyPayloadChecksum(header, flipped), ProtocolError);
}

class ServiceSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ServiceServer>();
    server_->Start();
  }
  void TearDown() override { server_->Stop(); }

  ServiceClient Connect() { return ServiceClient(server_->port()); }

  std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServiceSocketTest, NegativeCorpusNeverKillsTheServer) {
  const std::string list_payload;  // ListTables: empty

  {  // Bad magic.
    ServiceClient c = Connect();
    ExpectBadFrameThenClose(
        c, RawHeader("XXXXXXXX", kProtocolVersion,
                     static_cast<uint32_t>(MessageType::kListTables), 0, 0));
  }
  {  // Unknown protocol version.
    ServiceClient c = Connect();
    ExpectBadFrameThenClose(
        c, RawHeader(kFrameMagic, 99,
                     static_cast<uint32_t>(MessageType::kListTables), 0, 0));
  }
  {  // Unknown message type.
    ServiceClient c = Connect();
    ExpectBadFrameThenClose(c, RawHeader(kFrameMagic, kProtocolVersion, 55, 0, 0));
  }
  {  // Length prefix over the bound: rejected before any allocation.
    ServiceClient c = Connect();
    ExpectBadFrameThenClose(
        c, RawHeader(kFrameMagic, kProtocolVersion,
                     static_cast<uint32_t>(MessageType::kIngestBatch),
                     kMaxPayloadBytes + 1, 0));
  }
  {  // Checksum mismatch.
    ServiceClient c = Connect();
    std::string frame = EncodeFrame(MessageType::kListTables, list_payload);
    frame[24] ^= 1;  // corrupt the checksum field
    ExpectBadFrameThenClose(c, frame);
  }
  {  // A response frame from a client is a protocol violation.
    ServiceClient c = Connect();
    ExpectBadFrameThenClose(c, EncodeFrame(MessageType::kReply, ""));
  }
  {  // Mid-header disconnect: nothing to answer; server must just move on.
    ServiceClient c = Connect();
    ASSERT_TRUE(c.SendBytes(std::string(kFrameMagic, 5)));
    c.Close();
  }
  {  // Mid-payload disconnect: header promises more bytes than ever arrive.
    ServiceClient c = Connect();
    std::string payload = EncodeTableRequest({"t"});
    std::string frame = EncodeFrame(MessageType::kDropTable, payload);
    ASSERT_TRUE(c.SendBytes(frame.substr(0, frame.size() - 3)));
    c.Close();
  }

  // After the whole corpus the server still serves fresh connections.
  ServiceClient c = Connect();
  ServiceClient::Outcome outcome = c.ListTables();
  ASSERT_TRUE(outcome.ok()) << outcome.message;
  EXPECT_TRUE(outcome.reply.tables.empty());
}

TEST_F(ServiceSocketTest, MalformedPayloadFailsRequestNotConnection) {
  ServiceClient c = Connect();
  ASSERT_TRUE(c.CreateTable("t", {"A", "B"}).ok());
  ASSERT_TRUE(c.IngestBatch("t", {{"1", "x"}}).ok());
  ServiceClient::Outcome before = c.FetchReport("t");
  ASSERT_TRUE(before.ok());

  // Well-formed frame, garbage payload: typed kBadRequest, and the SAME
  // connection keeps working — framing was never lost.
  ASSERT_TRUE(c.SendBytes(EncodeFrame(MessageType::kIngestBatch, "garbage")));
  std::optional<Frame> response = c.ReadResponse();
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, MessageType::kError);
  EXPECT_EQ(DecodeError(response->payload).code, ServiceError::kBadRequest);

  // A payload that decodes but is semantically absurd: also typed, also
  // non-destructive.
  ServiceClient::Outcome bad =
      c.ApplyMixed("t", {}, {uint64_t{1} << 40}, {});
  EXPECT_EQ(bad.code, ServiceError::kInvalidArgument);

  ServiceClient::Outcome unknown = c.IngestBatch("ghost", {{"1", "2"}});
  EXPECT_EQ(unknown.code, ServiceError::kUnknownTable);

  // No partial mutation anywhere along the way.
  ServiceClient::Outcome after = c.FetchReport("t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.reply.content_fingerprint, before.reply.content_fingerprint);
  EXPECT_EQ(after.reply.status, before.reply.status);
}

// ---------------------------------------------------------------------------
// Lifecycle & backpressure
// ---------------------------------------------------------------------------

TEST(ServiceLifecycle, BackpressureIsTypedAndImmediate) {
  ServiceConfig config;
  config.max_inflight = 0;  // degenerate cap: every request must bounce
  FdService svc(config);
  ServiceResult r = svc.CreateTable({"t", {"A"}});
  EXPECT_EQ(r.code, ServiceError::kBackpressure);
  EXPECT_EQ(svc.ListTables().code, ServiceError::kBackpressure);
}

TEST(ServiceLifecycle, OverloadBouncesButNeverBreaks) {
  ServiceConfig config;
  config.num_workers = 2;
  config.max_inflight = 2;
  FdService svc(config);
  ASSERT_TRUE(svc.CreateTable({"t", {"A", "B", "C"}}).ok());
  std::mt19937_64 seed_rng(5);
  ASSERT_TRUE(svc.IngestBatch({"t", RandomRows(3, 60, seed_rng)}).ok());

  std::atomic<int> ok_count{0}, bounced{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&svc, &ok_count, &bounced, &other] {
      for (int j = 0; j < 5; ++j) {
        ServiceResult r = svc.QueryUccs({"t"});
        if (r.ok()) {
          ++ok_count;
        } else if (r.code == ServiceError::kBackpressure) {
          ++bounced;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(other.load(), 0) << "only ok/backpressure are acceptable";
  EXPECT_GT(ok_count.load(), 0);
  // The service is intact after the storm.
  EXPECT_TRUE(svc.QueryFds({"t"}).ok());
}

TEST(ServiceLifecycle, ConcurrentCreateOfSameNameElectsOneWinner) {
  FdService svc;
  constexpr int kThreads = 8;
  std::atomic<int> created{0}, exists{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&svc, &created, &exists, &other] {
      ServiceResult r = svc.CreateTable({"contested", {"A", "B"}});
      if (r.ok()) {
        ++created;
      } else if (r.code == ServiceError::kTableExists) {
        ++exists;
      } else {
        ++other;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(created.load(), 1);
  EXPECT_EQ(exists.load(), kThreads - 1);
  EXPECT_EQ(other.load(), 0);
  EXPECT_TRUE(svc.IngestBatch({"contested", {{"1", "2"}}}).ok());
}

TEST(ServiceLifecycle, DropWhileIngestingIsAlwaysTyped) {
  FdService svc;
  ASSERT_TRUE(svc.CreateTable({"t", {"A", "B"}}).ok());
  std::atomic<bool> dropped{false};
  std::atomic<int> bad{0};
  std::thread ingester([&svc, &dropped, &bad] {
    std::mt19937_64 rng(13);
    for (int i = 0; i < 50 && !dropped.load(); ++i) {
      ServiceResult r = svc.IngestBatch({"t", RandomRows(2, 3, rng)});
      if (!r.ok() && r.code != ServiceError::kUnknownTable) ++bad;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ServiceResult drop = svc.DropTable({"t"});
  dropped.store(true);
  ingester.join();
  ASSERT_TRUE(drop.ok()) << drop.message;
  EXPECT_EQ(bad.load(), 0) << "mid-drop ingests must be ok or kUnknownTable";
  EXPECT_EQ(svc.QueryFds({"t"}).code, ServiceError::kUnknownTable);
  // The name is immediately reusable, and the new table starts empty.
  ASSERT_TRUE(svc.CreateTable({"t", {"A", "B"}}).ok());
  ServiceResult fresh = svc.QueryFds({"t"});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.reply.status.total_rows, 0u);
}

TEST(ServiceLifecycle, ShutdownDrainsInFlightRequests) {
  auto svc = std::make_unique<FdService>();
  ASSERT_TRUE(svc->CreateTable({"t", {"A", "B", "C"}}).ok());
  std::mt19937_64 rng(17);
  ASSERT_TRUE(svc->IngestBatch({"t", RandomRows(3, 50, rng)}).ok());

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&svc, &bad] {
      for (int j = 0; j < 10; ++j) {
        ServiceResult r = svc->QueryUccs({"t"});
        // Every request either completes normally (drained) or is refused
        // up-front; a crash/deadlock would hang the join below.
        if (!r.ok() && r.code != ServiceError::kShuttingDown) ++bad;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc->Shutdown();
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(svc->QueryFds({"t"}).code, ServiceError::kShuttingDown);
}

// ---------------------------------------------------------------------------
// The stress/differential harness (ISSUE acceptance: N≥8 clients, M≥4
// tables, final state bit-identical to the single-threaded oracle)
// ---------------------------------------------------------------------------

TEST(ServiceStress, ConcurrentCrudMatchesSingleThreadedOracle) {
  constexpr int kTables = 4;
  constexpr int kClients = 8;
  constexpr size_t kOpsPerTable = 10;
  constexpr int kCols = 3;

  ServerConfig config;
  config.service.num_workers = 4;
  config.max_connections = kClients + 2;
  ServiceServer server(config);
  server.Start();

  const std::vector<std::string> columns = Schema::Generic(kCols).names();
  std::vector<std::string> names;
  std::vector<std::vector<Op>> schedules;
  {
    ServiceClient admin(server.port());
    for (int t = 0; t < kTables; ++t) {
      names.push_back("table" + std::to_string(t));
      schedules.push_back(MakeSchedule(kCols, kOpsPerTable, 1000 + t));
      ASSERT_TRUE(admin.CreateTable(names.back(), columns).ok());
    }
  }

  // Per-table schedule cursors. A client claims a table's next op and holds
  // the table's lock across the RPC, so each table sees its schedule in
  // order — while ops on different tables interleave freely, which is the
  // point of the stress.
  struct Cursor {
    std::mutex mu;
    // Atomic so the lock-free "any work left?" probe below is race-free;
    // mutations still happen under `mu`, which is what serializes each
    // table's schedule order.
    std::atomic<size_t> next{0};
  };
  std::vector<Cursor> cursors(kTables);
  std::atomic<int> mutation_failures{0}, query_failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServiceClient client(server.port());
      std::mt19937_64 rng(9000 + c);
      while (true) {
        // Find a table with work left, starting from a random position.
        int claimed = -1;
        size_t start = rng() % kTables;
        for (int probe = 0; probe < kTables; ++probe) {
          int t = static_cast<int>((start + probe) % kTables);
          if (cursors[t].next < schedules[t].size()) {
            claimed = t;
            break;
          }
        }
        if (claimed < 0) break;  // every schedule drained
        {
          std::unique_lock<std::mutex> lock(cursors[claimed].mu);
          size_t i = cursors[claimed].next;
          if (i < schedules[claimed].size()) {
            const Op& op = schedules[claimed][i];
            ServiceClient::Outcome r = client.ApplyMixed(
                names[claimed], op.inserts, op.deletes, op.updates);
            if (r.ok()) {
              cursors[claimed].next = i + 1;
            } else {
              ++mutation_failures;
            }
          }
        }
        // Unsynchronized read pressure on a random table: answers reflect
        // *some* consistent prefix, so only transport errors count.
        ServiceClient::Outcome q =
            client.QueryFds(names[rng() % kTables]);
        if (!q.ok()) ++query_failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(mutation_failures.load(), 0);
  ASSERT_EQ(query_failures.load(), 0);

  // The differential check: every table's final FD set, UCC set, and
  // content fingerprint must be bit-identical to a fresh single-threaded
  // session replaying the same schedule.
  ServiceClient verifier(server.port());
  for (int t = 0; t < kTables; ++t) {
    std::unique_ptr<IncrementalHyFd> oracle = MakeOracle(columns, schedules[t]);

    ServiceClient::Outcome fds = verifier.QueryFds(names[t]);
    ASSERT_TRUE(fds.ok()) << fds.message;
    ExpectSameFds(oracle->fds(), ToFdSet(fds.reply, kCols),
                  "stress table " + names[t]);
    EXPECT_EQ(fds.reply.status.live_rows, oracle->num_live_rows());
    EXPECT_EQ(fds.reply.status.num_batches,
              static_cast<uint64_t>(oracle->num_batches()));

    ServiceClient::Outcome uccs = verifier.QueryUccs(names[t]);
    ASSERT_TRUE(uccs.ok()) << uccs.message;
    EXPECT_EQ(ToUccs(uccs.reply, kCols), OracleUccs(*oracle))
        << "UCC divergence on " << names[t];

    ServiceClient::Outcome report = verifier.FetchReport(names[t]);
    ASSERT_TRUE(report.ok()) << report.message;
    EXPECT_EQ(report.reply.content_fingerprint,
              oracle->LiveRelation().ContentFingerprint())
        << "content divergence on " << names[t];
  }
  server.Stop();
}

// Reads take the table lock shared: same-table QueryFds, QueryUccs and
// FetchReport run alongside each other and between ApplyMixed batches. Each
// answer must equal the oracle at the batch count it reports (a read never
// sees a half-applied batch), and the final state must equal the oracle's.
TEST(ServiceStress, SharedReadsInterleaveWithWritesOnOneTable) {
  constexpr int kCols = 4;
  constexpr size_t kOps = 12;
  constexpr int kReadersPerKind = 2;
  const std::vector<std::string> columns = Schema::Generic(kCols).names();
  const std::vector<Op> ops = MakeSchedule(kCols, kOps, /*seed=*/77);

  // The oracle after every prefix of the schedule, by batch count.
  struct Snapshot {
    FDSet fds;
    std::vector<AttributeSet> uccs;
    uint64_t fingerprint = 0;
  };
  std::vector<Snapshot> snapshots;
  for (size_t k = 0; k <= kOps; ++k) {
    const std::unique_ptr<IncrementalHyFd> oracle = MakeOracle(
        columns, std::vector<Op>(ops.begin(),
                                 ops.begin() + static_cast<std::ptrdiff_t>(k)));
    snapshots.push_back({oracle->fds(), OracleUccs(*oracle),
                         oracle->LiveRelation().ContentFingerprint()});
  }

  ServiceConfig config;
  config.num_workers = 4;
  FdService svc(config);
  ASSERT_TRUE(svc.CreateTable({"t", columns}).ok());

  std::atomic<bool> writes_done{false};
  std::atomic<int> failures{0};
  std::atomic<int> divergences{0};
  std::atomic<size_t> reads{0};
  const auto snapshot_of = [&](const ReplyBody& reply) -> const Snapshot* {
    const uint64_t batches = reply.status.num_batches;
    return batches < snapshots.size() ? &snapshots[batches] : nullptr;
  };
  const auto reader = [&](int kind) {
    // Keep reading until the writer finished, then once more.
    bool last = false;
    while (!last) {
      last = writes_done.load();
      ServiceResult r = kind == 0   ? svc.QueryFds({"t"})
                        : kind == 1 ? svc.QueryUccs({"t"})
                                    : svc.FetchReport({"t"});
      if (!r.ok()) {
        ++failures;
        continue;
      }
      ++reads;
      const Snapshot* want = snapshot_of(r.reply);
      const bool same =
          want != nullptr &&
          (kind == 0   ? ToFdSet(r.reply, kCols) == want->fds
           : kind == 1 ? ToUccs(r.reply, kCols) == want->uccs
                       : r.reply.content_fingerprint == want->fingerprint);
      if (!same) ++divergences;
    }
  };
  std::vector<std::thread> readers;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kReadersPerKind; ++i) readers.emplace_back(reader, kind);
  }
  for (const Op& op : ops) {
    ServiceResult r = svc.ApplyMixed({"t", op.inserts, op.deletes, op.updates});
    if (!r.ok()) ++failures;
  }
  writes_done = true;
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(divergences.load(), 0);
  EXPECT_GE(reads.load(), static_cast<size_t>(3 * kReadersPerKind));
  const Snapshot& final_state = snapshots.back();
  ExpectSameFds(final_state.fds, ToFdSet(svc.QueryFds({"t"}).reply, kCols),
                "final state");
  EXPECT_EQ(ToUccs(svc.QueryUccs({"t"}).reply, kCols), final_state.uccs);
  EXPECT_EQ(svc.FetchReport({"t"}).reply.content_fingerprint,
            final_state.fingerprint);
}

}  // namespace
}  // namespace hyfd::service

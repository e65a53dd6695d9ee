// Incremental vs. from-scratch re-discovery (the EAIFD workload, DESIGN.md
// §9/§13): one IncrementalHyFd session absorbs a ladder of batch sizes while
// a fresh HyFD run re-discovers the concatenated relation from scratch at
// every step. For each batch size the table reports both times and the
// speedup; small batches (≤ 1% of the rows) are where the restricted
// re-validation pays — the acceptance bar is ≥ 2x there.
//
// A second ladder drives the full CRUD surface: per point, each batch
// deletes a fraction of the live rows, updates as many again, and inserts
// enough fresh rows to hold the live count steady — against a from-scratch
// run on the live rows only.
//
// After every batch, the incremental FD set is compared against the
// from-scratch run. ANY divergence makes the harness exit non-zero (2): the
// speedup numbers are meaningless unless the answers are identical.
//
// Flags: --rows=N       rows of the generated base relation (default 20000)
//        --cols=N       columns (default 8)
//        --domain=N     value domain per column (default 24)
//        --batches=N    batches per ladder point (default 3)
//        --threads=N    session + from-scratch thread count (default 1)
//        --smoke        CI mode: 3000 rows, 2 batches per point
//        --out=PATH     JSON output path (default BENCH_incremental.json)

#include <cstdio>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/hyfd.h"
#include "core/incremental.h"
#include "data/generators.h"

namespace {

std::vector<std::vector<std::optional<std::string>>> SliceRows(
    const hyfd::Relation& source, size_t from, size_t to) {
  std::vector<std::vector<std::optional<std::string>>> rows;
  rows.reserve(to - from);
  for (size_t r = from; r < to; ++r) {
    std::vector<std::optional<std::string>> row(
        static_cast<size_t>(source.num_columns()));
    for (int c = 0; c < source.num_columns(); ++c) {
      if (!source.IsNull(r, c)) row[static_cast<size_t>(c)] = source.Value(r, c);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hyfd;
  using namespace hyfd::bench;
  Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke");
  size_t rows = static_cast<size_t>(flags.GetInt("rows", smoke ? 3000 : 20000));
  int cols = static_cast<int>(flags.GetInt("cols", 8));
  uint64_t domain = static_cast<uint64_t>(flags.GetInt("domain", 24));
  size_t batches =
      static_cast<size_t>(flags.GetInt("batches", smoke ? 2 : 3));
  int threads = static_cast<int>(flags.GetInt("threads", 1));
  std::string out = flags.GetString("out", "BENCH_incremental.json");

  // Batch-size ladder as a fraction of the base rows. The ≤ 1% points are
  // the incremental sweet spot the acceptance criterion measures.
  const double fractions[] = {0.001, 0.005, 0.01, 0.05, 0.1};

  // Mid-cardinality generated data: enough value collisions that batches
  // touch real clusters, enough columns that validation dominates — the
  // regime where re-validating everything from scratch actually hurts.
  // Extra rows beyond `rows` feed the batches.
  size_t extra = 0;
  for (double f : fractions) {
    extra += batches * std::max<size_t>(1, static_cast<size_t>(f * rows));
  }
  Relation source = GenerateFdReduced(rows + extra, cols, domain, /*seed=*/11);

  std::printf("=== Incremental vs from-scratch re-discovery: %zu base rows x "
              "%d cols, %zu batches per point, %d thread(s) ===\n",
              rows, cols, batches, threads);
  std::printf("%10s %10s %14s %14s %9s %10s %6s\n", "batch", "frac",
              "incremental", "from-scratch", "speedup", "invalidated",
              "same");

  IncrementalConfig config;
  config.num_threads = threads;
  IncrementalHyFd session(source.HeadRows(rows), config);

  HyFdConfig scratch_config;
  scratch_config.num_threads = threads;

  ReportSink sink("incremental");
  bool all_identical = true;
  bool small_batch_speedup_ok = true;
  size_t applied = rows;
  for (double fraction : fractions) {
    const size_t batch_rows =
        std::max<size_t>(1, static_cast<size_t>(fraction * rows));
    double incremental_seconds = 0;
    double scratch_seconds = 0;
    size_t invalidated = 0;
    bool identical = true;
    for (size_t b = 0; b < batches; ++b) {
      auto batch = SliceRows(source, applied, applied + batch_rows);
      applied += batch_rows;

      Timer timer;
      const FDSet& incremental_fds = session.ApplyBatch(batch);
      incremental_seconds += timer.ElapsedSeconds();
      invalidated += session.report()
                         .FindCounter("incremental.fds_invalidated")
                         .value_or(0);

      // From-scratch: a fresh HyFd object per step — no warm owned cache,
      // exactly what "re-run discovery on the grown relation" costs.
      timer.Restart();
      FDSet scratch_fds = DiscoverFds(source.HeadRows(applied), scratch_config);
      scratch_seconds += timer.ElapsedSeconds();

      identical = identical && incremental_fds == scratch_fds;

      RunReport report = session.report();
      report.dataset = "fd-reduced (generated)";
      report.SetCounter("bench.batch_rows", batch_rows);
      report.SetCounter("bench.identical", identical ? 1 : 0);
      sink.Add(report);
    }
    const double speedup =
        incremental_seconds > 0 ? scratch_seconds / incremental_seconds : 0.0;
    std::printf("%10zu %9.2f%% %13.3fs %13.3fs %8.2fx %11zu %6s\n",
                batch_rows, fraction * 100, incremental_seconds,
                scratch_seconds, speedup, invalidated,
                identical ? "yes" : "NO !!");
    std::fflush(stdout);
    all_identical = all_identical && identical;
    if (fraction <= 0.01 && speedup < 2.0) small_batch_speedup_ok = false;
  }

  // --- Mixed-op ladder: delete + update + insert per batch. ----------------
  std::printf("\n=== Mixed delete/update/insert ladder (fraction = share of "
              "live rows deleted AND updated per batch) ===\n");
  std::printf("%10s %10s %14s %14s %9s %12s %6s\n", "ops/batch", "frac",
              "incremental", "from-scratch", "speedup", "generalized",
              "same");

  IncrementalHyFd crud_session(source.HeadRows(rows), config);
  // Model of the live rows: (session physical id, row content). The
  // from-scratch comparator rebuilds a Relation from this outside the timer.
  std::vector<std::pair<RecordId, std::vector<std::optional<std::string>>>>
      live;
  for (size_t r = 0; r < rows; ++r) {
    auto row = SliceRows(source, r, r + 1);
    live.emplace_back(static_cast<RecordId>(r), std::move(row[0]));
  }
  // Fresh content comes from the generated tail beyond what the append
  // ladder consumed; wrap around if the mixed ladder outruns it.
  size_t fresh_cursor = applied;
  std::mt19937_64 rng(0xC0FFEEu);

  for (double fraction : fractions) {
    const size_t ops =
        std::max<size_t>(1, static_cast<size_t>(fraction * rows));
    double incremental_seconds = 0;
    double scratch_seconds = 0;
    size_t generalized = 0;
    bool identical = true;
    for (size_t b = 0; b < batches; ++b) {
      // Pick 2*ops distinct random live rows: the first `ops` die, the next
      // `ops` are rewritten to fresh content.
      const size_t claim = std::min(2 * ops, live.size() - 1);
      for (size_t i = 0; i < claim; ++i) {
        const size_t pick = rng() % (live.size() - i);
        std::swap(live[pick], live[live.size() - 1 - i]);
      }
      const auto fresh_row = [&]() {
        if (fresh_cursor >= source.num_rows()) fresh_cursor = 0;
        auto row = SliceRows(source, fresh_cursor, fresh_cursor + 1);
        ++fresh_cursor;
        return std::move(row[0]);
      };
      const size_t num_deletes = claim / 2;
      const size_t num_updates = claim - num_deletes;
      std::vector<RecordId> deletes;
      for (size_t i = live.size() - num_deletes; i < live.size(); ++i) {
        deletes.push_back(live[i].first);
      }
      std::vector<
          std::pair<RecordId, std::vector<std::optional<std::string>>>>
          updates;
      for (size_t i = live.size() - claim; i < live.size() - num_deletes;
           ++i) {
        updates.emplace_back(live[i].first, fresh_row());
      }
      std::vector<std::vector<std::optional<std::string>>> inserts;
      for (size_t i = 0; i < num_deletes; ++i) inserts.push_back(fresh_row());

      // One call, one repair pass — deletes, updates, and inserts share the
      // cover repair and the hybrid loop.
      Timer timer;
      const FDSet& incremental_fds =
          crud_session.ApplyMixed(inserts, deletes, updates);
      incremental_seconds += timer.ElapsedSeconds();
      generalized += crud_session.last_batch_stats().fds_generalized;

      // Mirror the session's id assignment: inserts append first, then the
      // updates' fresh versions.
      live.resize(live.size() - num_deletes);
      RecordId next_id =
          static_cast<RecordId>(crud_session.relation().num_rows()) -
          static_cast<RecordId>(num_updates + inserts.size());
      for (auto& row : inserts) live.emplace_back(next_id++, row);
      for (size_t i = 0; i < num_updates; ++i) {
        auto& slot = live[live.size() - inserts.size() - num_updates + i];
        slot = {next_id++, updates[i].second};
      }

      std::vector<std::vector<std::optional<std::string>>> model_rows;
      model_rows.reserve(live.size());
      for (const auto& [id, row] : live) model_rows.push_back(row);
      Relation model = Relation::FromRows(source.schema(), model_rows);

      timer.Restart();
      FDSet scratch_fds = DiscoverFds(model, scratch_config);
      scratch_seconds += timer.ElapsedSeconds();

      identical = identical && incremental_fds == scratch_fds;

      RunReport report = crud_session.report();
      report.dataset = "fd-reduced (generated, mixed ops)";
      report.SetCounter("bench.mixed_ops", ops);
      report.SetCounter("bench.identical", identical ? 1 : 0);
      sink.Add(report);
    }
    const double speedup =
        incremental_seconds > 0 ? scratch_seconds / incremental_seconds : 0.0;
    std::printf("%10zu %9.2f%% %13.3fs %13.3fs %8.2fx %12zu %6s\n", ops,
                fraction * 100, incremental_seconds, scratch_seconds, speedup,
                generalized, identical ? "yes" : "NO !!");
    std::fflush(stdout);
    all_identical = all_identical && identical;
    if (fraction <= 0.01 && speedup < 2.0) small_batch_speedup_ok = false;
  }

  if (!sink.WriteJson(out)) return 1;

  std::printf(
      "\nEAIFD reference: re-validating only the dependencies an update batch\n"
      "invalidated is far cheaper than re-running discovery — for appends\n"
      "via the restricted touched-cluster check, for deletes/updates via the\n"
      "witnessed-cover repair loop. Small batches (<= 1%% of rows) must clear\n"
      "2x here; `same` must read `yes` on every row or this harness exits\n"
      "non-zero.\n");
  // The speedup bar is meaningful at the default scale, where the scratch
  // baseline is large enough to amortize the per-batch fixed costs (cover
  // repair, state growth). --smoke shrinks the baseline to a correctness
  // gate; its ratios are noise.
  if (!small_batch_speedup_ok && !smoke) {
    std::printf("WARNING: a <=1%% batch point fell below the 2x speedup bar.\n");
  }

  return all_identical ? 0 : 2;
}

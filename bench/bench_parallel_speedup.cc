// Wall-clock speedup sweep for the real parallel execution engine.
//
// Runs PageRank and LINE at engine parallelism 1/2/4/8 (SetGlobalParallelism
// sweeps the knob in-process; PSGRAPH_THREADS would do the same from the
// shell) and reports real elapsed time, speedup over the sequential run,
// and the simulated makespan — which must be bit-identical across the
// sweep (the determinism contract, see DESIGN.md "Execution model").
//
// Honesty note: speedup is bounded by std::thread::hardware_concurrency(),
// which is printed with the results and recorded in BENCH_parallel.json.
// On a 1-core container every parallelism level time-slices one core and
// the sweep measures overhead, not speedup.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/graph_loader.h"
#include "core/line.h"
#include "core/pagerank.h"
#include "core/psgraph_context.h"
#include "graph/generators.h"
#include "sim/cluster.h"

namespace psgraph::bench {
namespace {

struct Sample {
  size_t parallelism = 0;
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
  int64_t makespan_ticks = 0;
};

core::PsGraphContext::Options BenchOptions() {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 8;
  opts.cluster.num_servers = 4;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  return opts;
}

int64_t MakespanTicks(core::PsGraphContext& ctx) {
  int64_t max_ticks = 0;
  for (int32_t n = 0; n < ctx.cluster().config().num_nodes(); ++n) {
    int64_t t = ctx.cluster().clock().NowTicks(n);
    if (t > max_ticks) max_ticks = t;
  }
  return max_ticks;
}

Sample RunPageRank(const graph::EdgeList& edges, size_t parallelism,
                   int iterations, BenchReport* report) {
  SetGlobalParallelism(parallelism);
  auto ctx = core::PsGraphContext::Create(BenchOptions());
  PSG_CHECK_OK(ctx.status());
  auto ds = core::StageAndLoadEdges(**ctx, edges, "bench/par_pr.bin");
  PSG_CHECK_OK(ds.status());
  core::PageRankOptions po;
  po.max_iterations = iterations;
  auto t0 = std::chrono::steady_clock::now();
  PSG_CHECK_OK(core::PageRank(**ctx, *ds, 0, po).status());
  auto t1 = std::chrono::steady_clock::now();
  Sample s;
  s.parallelism = parallelism;
  s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  s.sim_seconds = (*ctx)->cluster().clock().Makespan();
  s.makespan_ticks = MakespanTicks(**ctx);
  // The parallelism=1 run is the one whose histograms the regression
  // checker gates on.
  if (report != nullptr) report->Capture(&(*ctx)->cluster());
  return s;
}

Sample RunLine(const graph::EdgeList& edges, size_t parallelism,
               int epochs) {
  SetGlobalParallelism(parallelism);
  auto ctx = core::PsGraphContext::Create(BenchOptions());
  PSG_CHECK_OK(ctx.status());
  auto ds = core::StageAndLoadEdges(**ctx, edges, "bench/par_line.bin");
  PSG_CHECK_OK(ds.status());
  core::LineOptions lo;
  lo.embedding_dim = 16;
  lo.epochs = epochs;
  auto t0 = std::chrono::steady_clock::now();
  PSG_CHECK_OK(core::Line(**ctx, *ds, 0, lo).status());
  auto t1 = std::chrono::steady_clock::now();
  Sample s;
  s.parallelism = parallelism;
  s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  s.sim_seconds = (*ctx)->cluster().clock().Makespan();
  s.makespan_ticks = MakespanTicks(**ctx);
  return s;
}

void PrintSweep(const char* workload, const std::vector<Sample>& sweep) {
  const Sample& base = sweep.front();
  std::printf("%s:\n", workload);
  for (const Sample& s : sweep) {
    std::printf(
        "  parallelism=%zu  wall=%-9s speedup=%.2fx  sim=%s  %s\n",
        s.parallelism, FormatDuration(s.wall_seconds).c_str(),
        s.wall_seconds > 0 ? base.wall_seconds / s.wall_seconds : 0.0,
        FormatDuration(s.sim_seconds).c_str(),
        s.makespan_ticks == base.makespan_ticks
            ? "sim-ticks: identical"
            : "sim-ticks: DIVERGED (determinism bug!)");
  }
}

JsonValue SweepToJson(const std::vector<Sample>& sweep) {
  JsonValue arr = JsonValue::Array();
  for (const Sample& s : sweep) {
    JsonValue v = JsonValue::Object();
    v.Set("parallelism", static_cast<uint64_t>(s.parallelism));
    v.Set("wall_seconds", s.wall_seconds);
    v.Set("speedup", s.wall_seconds > 0
                         ? sweep.front().wall_seconds / s.wall_seconds
                         : 0.0);
    v.Set("sim_seconds", s.sim_seconds);
    v.Set("sim_ticks", s.makespan_ticks);
    v.Set("sim_ticks_identical",
          s.makespan_ticks == sweep.front().makespan_ticks);
    arr.Append(std::move(v));
  }
  return arr;
}

void Run() {
  const uint64_t denom = EnvU64("PSG_SCALE_DENOM", 1);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== Parallel execution engine: wall-clock speedup sweep "
              "===\nhardware_concurrency=%u (speedup is bounded by this; "
              "1 => sweep measures threading overhead only)\n\n",
              hw);

  graph::EdgeList pr_edges =
      graph::GenerateErdosRenyi(20000 / denom, 160000 / denom, 11);
  graph::EdgeList line_edges =
      graph::GenerateErdosRenyi(2000 / denom, 16000 / denom, 13);

  BenchReport report("parallel");
  const std::vector<size_t> levels{1, 2, 4, 8};
  std::vector<Sample> pr_sweep, line_sweep;
  for (size_t p : levels) {
    pr_sweep.push_back(RunPageRank(pr_edges, p, /*iterations=*/10,
                                   p == 1 ? &report : nullptr));
  }
  for (size_t p : levels) {
    line_sweep.push_back(RunLine(line_edges, p, /*epochs=*/2));
  }
  SetGlobalParallelism(0);  // restore the env/hardware default

  PrintSweep("PageRank (10 iterations)", pr_sweep);
  PrintSweep("LINE psFunc training (2 epochs)", line_sweep);

  report.Set("hardware_concurrency", JsonValue((uint64_t)hw));
  JsonValue workloads = JsonValue::Object();
  workloads.Set("pagerank", SweepToJson(pr_sweep));
  workloads.Set("line", SweepToJson(line_sweep));
  report.Set("workloads", std::move(workloads));
  report.Write();
}

}  // namespace
}  // namespace psgraph::bench

int main() {
  psgraph::bench::Run();
  return 0;
}

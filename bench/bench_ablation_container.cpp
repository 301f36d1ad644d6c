/// Design-choice ablation (paper §V-C; docs/BENCHMARKS.md): GPMA vs a
/// rebuild-per-batch CSR container for the device graph, across batch
/// sizes and two workload shapes.  Not a paper figure; it substantiates
/// the paper's adoption of GPMA ("for its simplicity and efficiency" in
/// applying update batches) with numbers.
///
/// Expected shape: rebuild cost is flat at ~2|E| entry moves regardless
/// of batch size or mix, GPMA's cost scales with the batch — so GPMA
/// wins by orders of magnitude at realistic (2-10%) rates, and the
/// advantage shrinks as the batch approaches |E|.  The churn rows
/// (delete-heavy mixed batches) lean on the deferred delete-phase
/// rebalancing: erases are in-place segment shifts with one windowed
/// redistribution pass per batch, so the gap over rebuild is widest
/// there.
#include <cstdio>

#include "bench_common.hpp"
#include "gpma/gpma.hpp"
#include "gpma/gpma_kernel.hpp"
#include "gpma/rebuild_container.hpp"

using namespace bdsm;
using namespace bdsm::bench;

int main(int argc, char** argv) {
  InitBench("bench_ablation_container", argc, argv);
  // Container-level bench: GPMA is gamma's device graph container and
  // both contenders run on the modeled device clock; no Engine exists
  // to Describe(), so the provenance names the family.
  JsonProvenance("gamma", ClockDomain::kModeledDevice);
  Scale scale;
  PrintHeader("Ablation: graph container",
              "GPMA incremental updates vs full CSR rebuild (modeled "
              "device microseconds per batch)",
              scale);

  printf("%-4s %-7s %8s | %12s %12s | %8s\n", "DS", "mix", "batch",
         "GPMA(us)", "rebuild(us)", "ratio");
  for (const char* ds : {"GH", "ST", "LS"}) {
    const DatasetSpec& spec = DatasetByName(ds);
    const LabeledGraph& g = CachedDataset(spec.id);
    for (const char* mix : {"insert", "churn"}) {
      bool churn = mix[0] == 'c';
      for (size_t ops : {32, 128, 512, 2048}) {
        size_t elabels = spec.edge_labels > 1 ? spec.edge_labels : 0;
        // Churn = delete-heavy 1:3 mix, the regime where the deferred
        // delete-phase rebalancing earns its keep.
        workload::StreamSpec stream =
            workload::PreferentialSpec(ops, churn ? 0.25 : 1, elabels);
        UpdateBatch batch =
            workload::StreamGenerator(stream, scale.seed + ops).Next(g);

        Gpma gpma(32);
        gpma.BuildFrom(g);
        Device dev_gpma;
        UpdatePlan gpma_plan = gpma.ApplyBatch(batch);
        DeviceStats s_gpma = SimulateGpmaUpdate(dev_gpma, gpma_plan);

        RebuildContainer rebuild;
        rebuild.BuildFrom(g);
        Device dev_rebuild;
        UpdatePlan rebuild_plan = rebuild.ApplyBatch(batch);
        DeviceStats s_rebuild =
            SimulateGpmaUpdate(dev_rebuild, rebuild_plan);

        double us_gpma = double(s_gpma.makespan_ticks) *
                         dev_gpma.config().TickSeconds() * 1e6;
        double us_rebuild = double(s_rebuild.makespan_ticks) *
                            dev_rebuild.config().TickSeconds() * 1e6;
        printf("%-4s %-7s %8zu | %12.3f %12.3f | %7.1fx\n", ds, mix,
               batch.size(), us_gpma, us_rebuild,
               us_gpma > 0 ? us_rebuild / us_gpma : 0.0);

        JsonRow row;
        row.Set("dataset", ds)
            .Set("workload", mix)
            .Set("batch_ops", batch.size())
            .Set("gpma_us", us_gpma)
            .Set("rebuild_us", us_rebuild)
            .Set("rebuild_over_gpma",
                 us_gpma > 0 ? us_rebuild / us_gpma : 0.0);
        JsonSink::Instance().Add(std::move(row));
      }
    }
  }
  printf("\nShape check: rebuild cost ~constant in the batch size (full "
         "2|E| moves); GPMA cost tracks the batch; the ratio shrinks as "
         "batch size approaches |E| — incremental structures pay off "
         "exactly in the paper's 2-10%% regime.  Churn batches widen "
         "the gap further: deferred delete rebalancing keeps GPMA's "
         "per-batch work near the in-place minimum.\n");
  FinishBench();
  return 0;
}

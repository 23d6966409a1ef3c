//===- FigureHarness.cpp - Figure/table regeneration harness ----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "tangram/FigureHarness.h"

#include "support/StringUtils.h"

#include <limits>
#include <sstream>

using namespace tangram;

const std::vector<size_t> &FigureHarness::getPaperSizes() {
  // The x-axis of Figs. 7-10.
  static const std::vector<size_t> Sizes = {
      64,        256,      1024,     4096,      16384,    65536,
      262144,    1048576,  4194304,  16777216,  67108864, 268435456};
  return Sizes;
}

FigureRow FigureHarness::measure(const sim::ArchDesc &Arch, size_t N) {
  FigureRow Row;
  Row.N = N;

  // Tangram: tuned best version over the pruned set, via the hardened
  // sweep so the row records what (if anything) was quarantined.
  auto Best = TR.findBestReport(Arch, N);
  if (Best) {
    Row.TangramSeconds = Best->BestSeconds;
    Row.BestLabel = Best->Fig6Label;
    Row.BestName = Best->Best.getName();
    Row.QuarantinedConfigs = static_cast<unsigned>(Best->Quarantined.size());
  } else {
    // No surviving configuration: the row still measures every baseline and
    // carries the failure class instead of a Tangram time.
    Row.TangramSeconds = std::numeric_limits<double>::infinity();
    Row.Status = support::getStatusCodeName(Best.status().Code);
  }

  // Baselines on a scoped shared virtual input in the arch's engine.
  engine::ExecutionEngine &E = TR.engineFor(Arch);
  sim::DeviceScope Scratch(E.getDevice());
  sim::VirtualPattern Pattern;
  sim::BufferId In =
      E.getDevice().allocVirtual(ir::ScalarType::F32, N, Pattern);
  Row.CubSeconds = Cub.run(E, In, N, sim::ExecMode::Sampled).Seconds;
  Row.KokkosSeconds = Kokkos.run(E, In, N, sim::ExecMode::Sampled).Seconds;
  Row.OmpSeconds = Omp.run(E, In, N, sim::ExecMode::Sampled).Seconds;
  return Row;
}

std::vector<FigureRow> FigureHarness::measureAll(const sim::ArchDesc &Arch) {
  std::vector<FigureRow> Rows;
  for (size_t N : getPaperSizes())
    Rows.push_back(measure(Arch, N));
  return Rows;
}

std::string tangram::formatFigureTable(const std::string &Title,
                                       const std::vector<FigureRow> &Rows) {
  std::ostringstream OS;
  OS << Title << "\n";
  OS << strformat("%-12s %-6s %-16s %10s %10s %10s %10s\n", "N", "best",
                  "version", "tangram_x", "kokkos_x", "openmp_x", "cub_x");
  for (const FigureRow &R : Rows)
    OS << strformat("%-12zu (%s)%*s %-16s %10.2f %10.2f %10.2f %10.2f\n",
                    R.N, R.BestLabel.c_str(),
                    static_cast<int>(3 - R.BestLabel.size()), "",
                    R.BestName.c_str(), R.tangramSpeedup(),
                    R.kokkosSpeedup(), R.ompSpeedup(), 1.0);
  return OS.str();
}

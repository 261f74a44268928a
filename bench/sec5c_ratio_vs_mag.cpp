// Sec. V-C (text): effective compression ratio of E2MC across MAGs.
//
// Paper: GM effective ratio 1.41 / 1.31 / 1.16 for MAG 16 B / 32 B / 64 B;
// GM raw ratio 1.54 independent of MAG.
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace slc;
using namespace slc::bench;

int main() {
  print_banner("Sec. V-C — E2MC effective compression ratio vs MAG",
               "Sec. V-C text (paper: eff GM 1.41/1.31/1.16, raw GM 1.54)");

  const size_t mags[] = {16, 32, 64};
  const auto names = workload_names();

  TextTable t({"Bench", "Raw", "Eff@16B", "Eff@32B", "Eff@64B"});
  std::vector<double> raw_all;
  std::vector<double> eff_all[3];

  CodecEngine engine;
  for (const std::string& name : names) {
    const auto e2mc =
        CodecRegistry::instance().create("E2MC", codec_options_for(name, kDefaultMagBytes, 16));
    const std::vector<uint8_t>& image = workload_image_cached(name);
    // One size-only engine pass; the per-MAG rounding happens in the
    // per-MAG folds (raw bits do not depend on MAG).
    const auto res = engine.submit_analyze(*e2mc, to_blocks(image), kDefaultMagBytes).wait();

    std::vector<std::string> cells = {name};
    double raw = 0;
    for (int m = 0; m < 3; ++m) {
      CommitStats acc;
      for (const BlockAnalysis& a : res.blocks) acc.add(a, kBlockBytes, mags[m]);
      if (m == 0) {
        raw = acc.raw_ratio();
        raw_all.push_back(raw);
        cells.push_back(TextTable::fmt(raw, 2));
      }
      eff_all[m].push_back(acc.effective_ratio(mags[m]));
      cells.push_back(TextTable::fmt(acc.effective_ratio(mags[m]), 2));
    }
    t.add_row(cells);
  }

  t.add_row({"GM", TextTable::fmt(geometric_mean(raw_all), 2),
             TextTable::fmt(geometric_mean(eff_all[0]), 2),
             TextTable::fmt(geometric_mean(eff_all[1]), 2),
             TextTable::fmt(geometric_mean(eff_all[2]), 2)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("The raw ratio does not depend on MAG; the effective ratio falls as MAG\n");
  std::printf("grows because fewer compressed sizes land on burst multiples (Sec. V-C).\n");
  return 0;
}

// Shared scaffolding for the figure-reproduction binaries.
//
// Every figure bench accepts the same sweep options so EXPERIMENTS.md runs
// are reproducible and parameterizable:
//   --trials N     Monte-Carlo trials per data point (paper: 1000)
//   --seed S       master seed (per-trial streams derive deterministically)
//   --threads T    worker threads (0 = hardware concurrency)
//   --csv          emit machine-readable CSV instead of aligned tables
//   --nmin/--nmax/--nstep   tag-count sweep (paper: 100..2000 step 100)
//   --alpha A      confidence level (paper: 0.95)
//   --budget C     UTRP adversary communication budget (paper: 20)
//   --model M      empty-slot model for frame sizing: "poisson" (paper's
//                  approximation, default) or "exact" ((1-1/f)^n; slightly
//                  larger frames that keep simulated detection above alpha)
//   --plot         additionally render the panel as an ASCII chart
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "math/detection.h"
#include "util/ascii_chart.h"
#include "util/cli.h"
#include "util/expect.h"
#include "util/table.h"

namespace rfid::bench {

struct FigureOptions {
  std::uint64_t trials = 1000;
  std::uint64_t seed = 20080617;  // ICDCS 2008 opening day
  unsigned threads = 0;
  bool csv = false;
  std::uint64_t n_min = 100;
  std::uint64_t n_max = 2000;
  std::uint64_t n_step = 100;
  double alpha = 0.95;
  std::uint64_t budget = 20;
  math::EmptySlotModel model = math::EmptySlotModel::kPoissonApprox;
  bool plot = false;
};

/// Parses the common options plus any bench-specific `extra` option names.
/// An unknown flag or a malformed value prints the error and the allowed
/// flags to stderr and exits with status 2.
inline FigureOptions parse_figure_options(int argc, const char* const* argv,
                                          util::CliArgs** extra_out = nullptr,
                                          std::vector<std::string> extra = {}) {
  std::vector<std::string> allowed{"trials", "seed",  "threads", "csv",
                                   "nmin",   "nmax",  "nstep",   "alpha",
                                   "budget", "model", "plot"};
  for (auto& e : extra) allowed.push_back(std::move(e));
  try {
    static util::CliArgs* args = nullptr;  // leak-free enough for a main()
    args = new util::CliArgs(argc, argv, allowed);
    if (extra_out != nullptr) *extra_out = args;

    FigureOptions opt;
    opt.trials = static_cast<std::uint64_t>(args->get_int_or("trials", 1000));
    opt.seed = static_cast<std::uint64_t>(args->get_int_or("seed", 20080617));
    opt.threads = static_cast<unsigned>(args->get_int_or("threads", 0));
    opt.csv = args->get_bool("csv");
    opt.n_min = static_cast<std::uint64_t>(args->get_int_or("nmin", 100));
    opt.n_max = static_cast<std::uint64_t>(args->get_int_or("nmax", 2000));
    opt.n_step = static_cast<std::uint64_t>(args->get_int_or("nstep", 100));
    opt.alpha = args->get_double_or("alpha", 0.95);
    opt.budget = static_cast<std::uint64_t>(args->get_int_or("budget", 20));
    const std::string model = args->get_or("model", "poisson");
    RFID_EXPECT(model == "poisson" || model == "exact",
                "--model must be poisson or exact");
    opt.model = model == "exact" ? math::EmptySlotModel::kExact
                                 : math::EmptySlotModel::kPoissonApprox;
    opt.plot = args->get_bool("plot");
    return opt;
  } catch (const std::logic_error& e) {  // also std::stoll's invalid_argument
    std::cerr << (argc > 0 ? argv[0] : "bench") << ": bad command line: "
              << e.what() << "\nallowed flags:";
    for (const std::string& name : allowed) std::cerr << " --" << name;
    std::cerr << '\n';
    std::exit(2);
  }
}

inline std::vector<std::uint64_t> tag_count_sweep(const FigureOptions& opt) {
  std::vector<std::uint64_t> ns;
  for (std::uint64_t n = opt.n_min; n <= opt.n_max; n += opt.n_step) {
    ns.push_back(n);
  }
  return ns;
}

/// The paper's tolerance panels (Figs. 4–7 each show m = 5, 10, 20, 30).
inline const std::vector<std::uint64_t>& tolerance_panels() {
  static const std::vector<std::uint64_t> kPanels{5, 10, 20, 30};
  return kPanels;
}

inline void emit(const util::Table& table, const FigureOptions& opt) {
  if (opt.csv) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
}

inline void banner(const std::string& title) {
  std::cout << "=== " << title << " ===\n\n";
}

/// Renders a panel as an ASCII chart when --plot was requested.
inline void maybe_plot(const FigureOptions& opt, const std::vector<double>& xs,
                       const std::vector<util::ChartSeries>& series,
                       std::string title,
                       double reference_y = util::ChartOptions::kNoReference) {
  if (!opt.plot || xs.size() < 2) return;
  util::ChartOptions chart;
  chart.title = std::move(title);
  chart.reference_y = reference_y;
  std::cout << util::render_ascii_chart(xs, series, chart) << '\n';
}

}  // namespace rfid::bench

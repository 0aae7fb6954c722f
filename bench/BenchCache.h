//===- bench/BenchCache.h - shared --cache-dir plumbing ---------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// The figure/table drivers rerun the same pipeline grids on every
// invocation; this header gives each of them an optional persistent
// result cache:
//
//   std::string CacheDir = parseBenchFlags(argc, argv); // --cache-dir, --help
//   BenchCache Cache(CacheDir);
//   CampaignOptions Opts;
//   Cache.attach(Opts);
//   ... runCampaign(...) ...
//   Cache.save();                      // no-op without --cache-dir
//
// Not part of the library on purpose: it is convenience for standalone
// drivers, nothing more.
//
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_BENCH_BENCHCACHE_H
#define RAMLOC_BENCH_BENCHCACHE_H

#include "campaign/CacheStore.h"
#include "campaign/Campaign.h"
#include "support/Flags.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace ramloc {

/// Parses a driver's command line and returns its --cache-dir (empty when
/// absent). Prints the help and exits 0 on --help; exits 2 on anything
/// else the table does not accept.
inline std::string parseBenchFlags(int Argc, char **Argv) {
  std::string Dir;
  bool Help = false;
  FlagTable Flags(std::string("usage: ") + Argv[0] + " [options]\n");
  Flags.section("options");
  Flags.add("cache-dir", "DIR",
            "serve repeated runs from the persistent result cache in DIR",
            bindValue(Dir, parsePath));
  Flags.add("help", "print this help and exit", Help);
  std::vector<std::string> Positional;
  std::string Error;
  if (!Flags.parse(Argc, Argv, Positional, Error) || !Positional.empty()) {
    std::fprintf(stderr, "error: %s\n%s",
                 Error.empty() ? "unexpected argument" : Error.c_str(),
                 Flags.help().c_str());
    std::exit(2);
  }
  if (Help) {
    std::fputs(Flags.help().c_str(), stdout);
    std::exit(0);
  }
  return Dir;
}

class BenchCache {
public:
  explicit BenchCache(const std::string &Dir) {
    if (Dir.empty())
      return;
    std::string Error;
    if (Store.open(Dir, &Error))
      Active = true;
    else
      std::fprintf(stderr, "warning: %s; running uncached\n",
                   Error.c_str());
  }

  void attach(CampaignOptions &Opts) {
    if (Active)
      Opts.Cache = &Store.cache();
  }

  void save() {
    if (!Active)
      return;
    std::string Error;
    if (!Store.save(&Error))
      std::fprintf(stderr, "warning: cache save failed: %s\n",
                   Error.c_str());
    else
      std::fprintf(stderr, "cache: %zu entr%s -> %s\n",
                   Store.cache().size(),
                   Store.cache().size() == 1 ? "y" : "ies",
                   Store.path().c_str());
  }

private:
  CacheStore Store;
  bool Active = false;
};

} // namespace ramloc

#endif // RAMLOC_BENCH_BENCHCACHE_H

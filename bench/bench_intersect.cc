// bench_intersect: microbenchmark of the SIMD kernel layer (src/simd/).
//
//   bench_intersect [--seconds 0.2] [--json FILE]
//
// For every available kernel level (scalar / swar / avx2 / neon) and a grid
// of size classes — balanced pairs at three scales, two skew ratios that
// trip the galloping path, plus a bitmap-filter class modelling hub-vertex
// materialization — it measures sorted-set intersections per second over a
// pool of deterministic random inputs, and reports each level's speedup over
// scalar. Measurements are interleaved: kRounds rounds each time every
// (class, level) cell once, rotating which level goes first, and a cell
// reports the median of its rounds (min and max in the JSON). --seconds is
// a cell's timed total, split over the rounds. --json writes
// BENCH_intersect.json for the CI artifact; the acceptance gate is
// max_speedup >= 2.0 on at least one size class.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_serve_common.h"
#include "simd/bitset.h"
#include "simd/intersect.h"
#include "tools/flag_parser.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace fast;

std::vector<std::uint32_t> MakeSorted(Rng& rng, std::size_t n,
                                      std::uint32_t universe) {
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.Uniform(universe));
  std::sort(v.begin(), v.end());
  return v;
}

struct SizeClass {
  const char* name;
  std::size_t na;
  std::size_t nb;
  std::uint32_t universe;  // controls hit density
};

constexpr SizeClass kClasses[] = {
    {"64x64", 64, 64, 256},
    {"1kx1k", 1024, 1024, 4096},
    {"16kx16k", 16384, 16384, 65536},
    {"64x16k", 64, 16384, 65536},       // gallop territory
    {"16x64k", 16, 65536, 262144},      // extreme skew
};

struct Measurement {
  double ops_per_sec = 0;
  double elems_per_sec = 0;  // (na+nb) per op, the merge-work normalizer
  std::uint64_t checksum = 0;
};

// Pool of input pairs per class, reused across levels so every level sees
// identical data.
struct InputPool {
  std::vector<std::vector<std::uint32_t>> as, bs;
};

InputPool MakePool(const SizeClass& sc) {
  InputPool pool;
  Rng rng(0x1D7E45EC + sc.na * 31 + sc.nb);
  constexpr std::size_t kPairs = 16;
  for (std::size_t p = 0; p < kPairs; ++p) {
    pool.as.push_back(MakeSorted(rng, sc.na, sc.universe));
    pool.bs.push_back(MakeSorted(rng, sc.nb, sc.universe));
  }
  return pool;
}

// One deterministic pass over the pool: the same-inputs same-outputs check
// across kernel levels (kept out of the timed loop, whose pass count varies).
std::uint64_t PoolChecksum(const simd::Kernels& k, const SizeClass& sc,
                           const InputPool& pool) {
  std::vector<std::uint32_t> out(std::min(sc.na, sc.nb));
  std::uint64_t sum = 0;
  for (std::size_t p = 0; p < pool.as.size(); ++p) {
    const auto& a = pool.as[p];
    const auto& b = pool.bs[p];
    const std::size_t cnt =
        k.intersect(a.data(), a.size(), b.data(), b.size(), out.data());
    sum = sum * 1000003ULL + cnt;
    for (std::size_t i = 0; i < cnt; ++i) sum = sum * 31 + out[i];
  }
  return sum;
}

Measurement MeasureIntersect(const simd::Kernels& k, const SizeClass& sc,
                             const InputPool& pool, double seconds) {
  std::vector<std::uint32_t> out(std::min(sc.na, sc.nb));
  Measurement m;
  std::uint64_t ops = 0;
  Timer t;
  do {
    for (std::size_t p = 0; p < pool.as.size(); ++p) {
      const auto& a = pool.as[p];
      const auto& b = pool.bs[p];
      const std::size_t cnt =
          k.intersect(a.data(), a.size(), b.data(), b.size(), out.data());
      m.checksum += cnt + (cnt > 0 ? out[cnt - 1] : 0);
      ++ops;
    }
  } while (t.ElapsedSeconds() < seconds);
  const double elapsed = t.ElapsedSeconds();
  m.ops_per_sec = static_cast<double>(ops) / elapsed;
  m.elems_per_sec = m.ops_per_sec * static_cast<double>(sc.na + sc.nb);
  return m;
}

// Bitmap-filter class: one dense "hub" bitmap vs sorted candidate keys, the
// shape of hub-vertex CST materialization.
Measurement MeasureBitmapFilter(const simd::Kernels& k, double seconds) {
  constexpr std::size_t kBits = 1 << 18;
  Rng rng(0xB17F17E6);
  simd::Bitset bits(kBits);
  for (int i = 0; i < 1 << 14; ++i) {
    bits.Set(static_cast<std::uint32_t>(rng.Uniform(kBits)));
  }
  const auto keys = MakeSorted(rng, 4096, kBits);
  std::vector<std::uint32_t> out(keys.size());
  Measurement m;
  std::uint64_t ops = 0;
  Timer t;
  do {
    for (int rep = 0; rep < 16; ++rep) {
      const std::size_t cnt = k.filter_by_bitmap(
          bits.words().data(), kBits, keys.data(), keys.size(), out.data());
      m.checksum += cnt;
      ++ops;
    }
  } while (t.ElapsedSeconds() < seconds);
  const double elapsed = t.ElapsedSeconds();
  m.ops_per_sec = static_cast<double>(ops) / elapsed;
  m.elems_per_sec = m.ops_per_sec * static_cast<double>(keys.size());
  return m;
}

constexpr std::uint64_t kRounds = 5;

// Median, min and max of one cell's per-round samples.
struct Summary {
  Measurement median;
  double min_ops = 0;
  double max_ops = 0;
};

Summary Summarize(std::vector<Measurement> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.ops_per_sec < b.ops_per_sec;
            });
  return {samples[samples.size() / 2], samples.front().ops_per_sec,
          samples.back().ops_per_sec};
}

int Run(int argc, char** argv) {
  auto flags = tools::FlagParser::Parse(argc, argv, {"seconds", "json", "help"},
                                        /*bool_flags=*/{"help"});
  if (!flags.ok() || flags->Has("help")) {
    std::fprintf(stderr, "usage: bench_intersect [--seconds S] [--json FILE]\n%s\n",
                 flags.ok() ? "" : flags.status().ToString().c_str());
    return flags.ok() ? 0 : 2;
  }
  double seconds;
  FAST_FLAG_ASSIGN_OR_USAGE(seconds, flags->GetDouble("seconds", 0.2));
  const double sample_seconds = seconds / kRounds;

  std::vector<simd::Level> levels;
  for (int i = 0; i < simd::kNumLevels; ++i) {
    const auto level = static_cast<simd::Level>(i);
    if (simd::LevelAvailable(level)) levels.push_back(level);
  }

  // Cells are the intersect classes plus the hub-bitmap class (last).
  constexpr std::size_t kNumIntersect = std::size(kClasses);
  constexpr std::size_t kNumCells = kNumIntersect + 1;
  std::vector<InputPool> pools;
  for (const SizeClass& sc : kClasses) pools.push_back(MakePool(sc));

  // Same inputs, same distinct-value outputs: any divergence is a bug.
  bool checksums_ok = true;
  for (std::size_t c = 0; c < kNumIntersect; ++c) {
    const std::uint64_t scalar_checksum =
        PoolChecksum(simd::KernelsFor(simd::Level::kScalar), kClasses[c], pools[c]);
    for (const simd::Level level : levels) {
      if (PoolChecksum(simd::KernelsFor(level), kClasses[c], pools[c]) !=
          scalar_checksum) {
        checksums_ok = false;
        std::fprintf(stderr, "CHECKSUM MISMATCH: %s on class %s\n",
                     simd::LevelName(level), kClasses[c].name);
      }
    }
  }

  // samples[cell][level index][round]
  std::vector<std::vector<std::vector<Measurement>>> samples(
      kNumCells, std::vector<std::vector<Measurement>>(levels.size()));
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::size_t c = 0; c < kNumCells; ++c) {
      for (std::size_t i = 0; i < levels.size(); ++i) {
        const std::size_t li = (i + round) % levels.size();
        const simd::Kernels& kern = simd::KernelsFor(levels[li]);
        samples[c][li].push_back(
            c < kNumIntersect
                ? MeasureIntersect(kern, kClasses[c], pools[c], sample_seconds)
                : MeasureBitmapFilter(kern, sample_seconds));
      }
    }
  }

  bench::JsonWriter w;
  w.Field("bench", "bench_intersect");
  w.Field("seconds_per_cell", seconds);
  w.Field("rounds", kRounds);
  w.Field("levels", simd::AvailableLevelsString());

  std::printf("median of %llu interleaved rounds per cell\n",
              static_cast<unsigned long long>(kRounds));
  std::printf("%-10s %-8s %14s %16s %9s %8s\n", "class", "kernel", "ops/sec",
              "elems/sec", "speedup", "spread");
  double max_speedup = 0.0;
  std::string max_speedup_class;
  const char* max_speedup_level = "";
  for (std::size_t c = 0; c < kNumCells; ++c) {
    const bool bitmap = c == kNumIntersect;
    const char* name = bitmap ? "hub-bitmap" : kClasses[c].name;
    double scalar_ops = 0;
    for (std::size_t li = 0; li < levels.size(); ++li) {
      const simd::Level level = levels[li];
      const Summary m = Summarize(samples[c][li]);
      if (level == simd::Level::kScalar) scalar_ops = m.median.ops_per_sec;
      const double speedup =
          scalar_ops > 0 ? m.median.ops_per_sec / scalar_ops : 1.0;
      if (!bitmap && level != simd::Level::kScalar && speedup > max_speedup) {
        max_speedup = speedup;
        max_speedup_class = name;
        max_speedup_level = simd::LevelName(level);
      }
      // spread: (max - min) / median over the rounds.
      std::printf("%-10s %-8s %14.0f %16.3e %8.2fx %7.1f%%\n", name,
                  simd::LevelName(level), m.median.ops_per_sec,
                  m.median.elems_per_sec, speedup,
                  100.0 * (m.max_ops - m.min_ops) / m.median.ops_per_sec);
      char key[64];
      if (bitmap) {
        std::snprintf(key, sizeof(key), "bitmap_filter_%s", simd::LevelName(level));
      } else {
        std::snprintf(key, sizeof(key), "intersect_%s_%s", name,
                      simd::LevelName(level));
      }
      w.BeginObject(key);
      w.Field("ops_per_sec", m.median.ops_per_sec);
      if (!bitmap) w.Field("elems_per_sec", m.median.elems_per_sec);
      w.Field("ops_per_sec_min", m.min_ops);
      w.Field("ops_per_sec_max", m.max_ops);
      w.Field("speedup_vs_scalar", speedup);
      w.EndObject();
    }
  }
  std::printf("\nmax speedup: %.2fx (%s, class %s)\n", max_speedup,
              max_speedup_level, max_speedup_class.c_str());
  w.Field("max_speedup", max_speedup);
  w.Field("max_speedup_class", max_speedup_class);
  w.Field("max_speedup_level", max_speedup_level);
  w.Field("checksums_ok", checksums_ok);
  bench::EmbedBuildInfo(w);

  const std::string json = flags->GetString("json", "");
  if (!json.empty() && !bench::WriteJsonFile(json, w.Finish())) return 1;
  return checksums_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }

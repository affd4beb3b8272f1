// Batched-crypto microbenchmarks: the data-parallel derivation layer.
//
// Three row kinds land in BENCH_batched_crypto.json (schema 2, see
// docs/PERFORMANCE.md "Benchmark JSON"):
//
//   kind=hmac_micro   HM256 epoch derivation over the same pairs, one
//                     thread, three ways: the portable compression body
//                     (forced), the dispatched one-shot PRF
//                     (EpochPrfSha256Into) and the dispatched batch
//                     kernel (EpochPrfSha256Batch). `speedup` is portable
//                     over the faster accelerated path; the standing
//                     target is >= 4x wherever SHA-NI or AVX2 exists.
//   kind=hm1_micro    HM1 epoch derivation (the share PRF), portable
//                     (forced) vs the dispatched one-shot; SHA-1 has no
//                     batch form. Same >= 4x target on SHA-NI hardware.
//   kind=cold_start   the fig6a querier cold start at N = 10^6 (smoke:
//                     4096): one full epoch — per-source PSR creation
//                     into a PsrArena, contiguous aggregation, then a
//                     cold Querier::Evaluate (all N k_{i,t}/ss_{i,t}
//                     derivations) — at --threads {1,2,4}. The PSR
//                     phases do no per-source heap allocation.
//
//   ./build/bench/batched_crypto            # full run (N = 10^6)
//   ./build/bench/batched_crypto --smoke    # tiny grid, JSON plumbing
//   ./build/bench/batched_crypto --threads=1,2,4   # cold-start sweep
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/sha256x8.h"
#include "sies/aggregator.h"
#include "sies/psr_arena.h"
#include "sies/querier.h"
#include "sies/source.h"

namespace {
constexpr uint64_t kSeed = 7;
}  // namespace

int main(int argc, char** argv) {
  using namespace sies;

  bool smoke = false;
  std::vector<uint32_t> thread_counts = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts.clear();
      for (const char* p = argv[i] + 10; *p != '\0';) {
        char* end = nullptr;
        thread_counts.push_back(
            static_cast<uint32_t>(std::strtoul(p, &end, 10)));
        p = (*end == ',') ? end + 1 : end;
      }
    }
  }

  const crypto::CpuFeatures& cpu = crypto::Cpu();
  // The batch kernel kAuto resolves to (SHA-NI > AVX2 > portable), and
  // the body every one-shot HMAC compresses through.
  const char* kernel = cpu.sha ? "sha_ni" : cpu.avx2 ? "avx2" : "scalar";
  const char* oneshot_kernel = cpu.sha ? "sha_ni" : "scalar";
  bench::BenchReport report("batched_crypto");
  report.config().Add("seed", kSeed);
  report.config().Add("smoke", smoke);
  report.config().Add("kernel", kernel);
  report.config().Add("avx2", cpu.avx2);
  report.config().Add("sha", cpu.sha);
  report.config().Add("hw_threads",
                      static_cast<uint64_t>(common::HardwareConcurrency()));

  Stopwatch watch;
  std::printf("=== batched crypto (dispatch: %s) ===\n", kernel);

  // --- kind=hmac_micro / hm1_micro: the PRF kernels, one thread -------
  {
    const size_t pairs = smoke ? 2'000 : 100'000;
    const int reps = smoke ? 2 : 5;
    Xoshiro256 rng(kSeed);
    std::vector<Bytes> keys(pairs);
    std::vector<crypto::ByteView> views(pairs);
    for (size_t i = 0; i < pairs; ++i) {
      keys[i] = rng.NextBytes(20);  // the protocol's long-term key width
      views[i] = crypto::ByteView(keys[i]);
    }
    const uint64_t epoch = 1;
    uint8_t epoch_be[8];
    StoreBigEndian64(epoch, epoch_be);
    const crypto::ByteView epoch_view(epoch_be, sizeof(epoch_be));

    // The "keys" are per-run throwaway randomness timed in a benchmark,
    // never real key material, so the derived digests need no wipe.
    std::vector<uint8_t> out(32 * pairs);
    auto time_ms = [&](auto&& derive_all) {
      watch.Restart();
      for (int r = 0; r < reps; ++r) derive_all();
      return watch.ElapsedMillis() / reps;
    };
    // Every path must agree with the portable reference (spot check
    // here; the exhaustive differentials live in tests/crypto/).
    auto agree = [&](const uint8_t* a, const uint8_t* b, size_t len) {
      // Equality spot-check on throwaway bench digests; nothing secret
      // to leak through timing here.
      return std::memcmp(a, b, len) == 0;  // lint:allow(ct-compare)
    };

    const double hm256_portable_ms = time_ms([&] {
      for (size_t i = 0; i < pairs; ++i) {
        crypto::hmac_internal::HmacSha256With(
            crypto::sha256_internal::CompressPortable, views[i], epoch_view,
            out.data() + 32 * i);
      }
    });
    std::vector<uint8_t> ref(out.begin(), out.begin() + 32);
    const double hm256_oneshot_ms = time_ms([&] {
      for (size_t i = 0; i < pairs; ++i) {
        crypto::EpochPrfSha256Into(views[i], epoch, out.data() + 32 * i);  // lint:allow(zeroize)
      }
    });
    if (!agree(ref.data(), out.data(), 32)) {
      std::fprintf(stderr, "one-shot HM256 digest mismatch!\n");
      return 1;
    }
    const double hm256_batched_ms = time_ms([&] {
      crypto::EpochPrfSha256Batch(pairs, views.data(), epoch, out.data());  // lint:allow(zeroize)
    });
    if (!agree(ref.data(), out.data(), 32)) {
      std::fprintf(stderr, "batched HM256 digest mismatch!\n");
      return 1;
    }
    const double hm256_best_ms = std::min(hm256_oneshot_ms, hm256_batched_ms);
    const double hm256_speedup =
        hm256_best_ms > 0 ? hm256_portable_ms / hm256_best_ms : 0;
    std::printf("hmac_micro  %zu HM256: portable %.2f ms, one-shot %.2f ms "
                "(%s), batched %.2f ms (%s): %.2fx accelerated over "
                "portable (target >= 4x: %s)\n",
                pairs, hm256_portable_ms, hm256_oneshot_ms, oneshot_kernel,
                hm256_batched_ms, kernel, hm256_speedup,
                hm256_speedup >= 4.0 ? "met" : "NOT met");
    {
      bench::JsonObject row;
      row.Add("kind", "hmac_micro");
      row.Add("pairs", static_cast<uint64_t>(pairs));
      row.Add("reps", reps);
      row.Add("kernel", kernel);
      row.Add("oneshot_kernel", oneshot_kernel);
      row.Add("portable_ms", hm256_portable_ms);
      row.Add("oneshot_ms", hm256_oneshot_ms);
      row.Add("batched_ms", hm256_batched_ms);
      row.Add("oneshot_speedup", hm256_oneshot_ms > 0
                                     ? hm256_portable_ms / hm256_oneshot_ms
                                     : 0);
      row.Add("batched_speedup", hm256_batched_ms > 0
                                     ? hm256_portable_ms / hm256_batched_ms
                                     : 0);
      row.Add("speedup", hm256_speedup);
      report.AddRow(std::move(row));
    }

    const double hm1_portable_ms = time_ms([&] {
      for (size_t i = 0; i < pairs; ++i) {
        crypto::hmac_internal::HmacSha1With(
            crypto::sha1_internal::CompressPortable, views[i], epoch_view,
            out.data() + 20 * i);
      }
    });
    ref.assign(out.begin(), out.begin() + 20);
    const double hm1_oneshot_ms = time_ms([&] {
      for (size_t i = 0; i < pairs; ++i) {
        crypto::EpochPrfSha1Into(views[i], epoch, out.data() + 20 * i);  // lint:allow(zeroize)
      }
    });
    if (!agree(ref.data(), out.data(), 20)) {
      std::fprintf(stderr, "one-shot HM1 digest mismatch!\n");
      return 1;
    }
    const double hm1_speedup =
        hm1_oneshot_ms > 0 ? hm1_portable_ms / hm1_oneshot_ms : 0;
    std::printf("hm1_micro   %zu HM1: portable %.2f ms, one-shot %.2f ms "
                "(%s): %.2fx accelerated over portable (target >= 4x: "
                "%s)\n",
                pairs, hm1_portable_ms, hm1_oneshot_ms, oneshot_kernel,
                hm1_speedup, hm1_speedup >= 4.0 ? "met" : "NOT met");
    bench::JsonObject row;
    row.Add("kind", "hm1_micro");
    row.Add("pairs", static_cast<uint64_t>(pairs));
    row.Add("reps", reps);
    row.Add("oneshot_kernel", oneshot_kernel);
    row.Add("portable_ms", hm1_portable_ms);
    row.Add("oneshot_ms", hm1_oneshot_ms);
    row.Add("speedup", hm1_speedup);
    report.AddRow(std::move(row));
  }

  // --- kind=cold_start: fig6a at N = 10^6, threads sweep ---------------
  {
    const uint32_t n = smoke ? 4'096 : 1'000'000;
    const int reps = smoke ? 2 : 2;
    auto params = core::MakeParams(n, kSeed).value();
    auto qkeys = core::GenerateKeys(params, EncodeUint64(kSeed));
    const size_t width = params.PsrBytes();
    core::Aggregator agg(params);
    core::PsrArena arena;

    for (uint32_t threads : thread_counts) {
      std::unique_ptr<common::ThreadPool> pool;
      if (threads != 1) pool = std::make_unique<common::ThreadPool>(threads);

      // Phase 1: every source encrypts into its arena slot — zero
      // per-source heap allocation (the arena reuses capacity across
      // reps, i.e. across epochs in a deployment).
      auto create_all = [&] {
        arena.Reset(width, n);
        auto create_one = [&](size_t i) {
          core::Source src(
              params, static_cast<uint32_t>(i),
              core::KeysForSource(qkeys, static_cast<uint32_t>(i)).value());
          if (!src.CreatePsrInto(1, 1, arena.Slot(i)).ok()) std::abort();
        };
        if (pool != nullptr) {
          pool->ParallelFor(n, create_one);
        } else {
          for (size_t i = 0; i < n; ++i) create_one(i);
        }
      };
      watch.Restart();
      create_all();
      double create_ms = watch.ElapsedMillis();

      // Phase 2: one contiguous fold over the arena.
      Bytes final_psr(width);
      watch.Restart();
      if (!agg.MergeContiguous(arena.data(), n, final_psr.data()).ok()) {
        return 1;
      }
      double merge_ms = watch.ElapsedMillis();

      // Phase 3: the fig6a cold querier evaluation — all N k_{i,t} and
      // ss_{i,t} derivations through the batched kernel, fanned out over
      // the pool in derivation groups.
      core::Querier querier(params, qkeys);
      if (pool != nullptr) querier.SetThreadPool(pool.get());
      double cold_ms = 0;
      for (int r = 0; r < reps; ++r) {
        querier.ClearEpochKeyCache();
        watch.Restart();
        auto eval = querier.Evaluate(final_psr, 1);
        double ms = watch.ElapsedMillis();
        if (!eval.ok() || !eval.value().verified ||
            eval.value().sum != n) {
          std::fprintf(stderr, "cold-start verification failed!\n");
          return 1;
        }
        if (r == 0 || ms < cold_ms) cold_ms = ms;
      }

      std::printf("cold_start  N=%u threads=%u: create %.1f ms, merge "
                  "%.1f ms, cold evaluate %.1f ms\n",
                  n, threads, create_ms, merge_ms, cold_ms);
      bench::JsonObject row;
      row.Add("kind", "cold_start");
      row.Add("n", n);
      row.Add("threads", threads);
      row.Add("reps", reps);
      row.Add("kernel", kernel);
      row.Add("psr_create_ms", create_ms);
      row.Add("merge_ms", merge_ms);
      row.Add("cold_evaluate_ms", cold_ms);
      report.AddRow(std::move(row));
    }
  }

  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// Batched-crypto microbenchmarks: the data-parallel derivation layer.
//
// Three row kinds land in BENCH_batched_crypto.json (schema 2, see
// docs/PERFORMANCE.md "Benchmark JSON"):
//
//   kind=hmac_micro   HM256 epoch derivation over the same pairs, one
//                     thread: the portable compression body (forced,
//                     one-shot), the dispatched one-shot PRF of the raw
//                     key (EpochPrfSha256Into(ByteView)), the same PRF
//                     from each key's schedule (`scheduled_ms`,
//                     EpochPrfSha256Into(PrfKey)), the dispatched
//                     schedule-keyed batch kernel (EpochPrfSha256Batch)
//                     and, where the CPU has AVX2, that batch with the
//                     8-lane AVX2 transform forced (`avx2_batched_ms`:
//                     the number an AVX2-only host runs).
//                     `schedule_ms` is the one-time cost of building the
//                     pairs' schedules. `speedup` is portable over the
//                     fastest accelerated path; the standing target is
//                     >= 4x wherever SHA-NI or AVX2 exists.
//   kind=hm1_micro    HM1 epoch derivation (the share PRF), portable
//                     (forced) vs the dispatched one-shot vs from the
//                     schedule; SHA-1 has no batch form. Same >= 4x
//                     target on SHA-NI hardware.
//   kind=cold_start   the fig6a querier cold start at N = 10^6 (smoke:
//                     4096): one full epoch — per-source PSR creation
//                     into one contiguous buffer, its aggregation, then a
//                     cold Querier::Evaluate (all N k_{i,t}/ss_{i,t}
//                     derivations) — at --threads {1,2,4}. Building the
//                     sources (their key schedules) is timed apart as
//                     `source_setup_ms`, and the querier's N schedules
//                     as `querier_setup_ms`: both are once per
//                     deployment, not per epoch. The PSR phases do no
//                     per-source heap allocation.
//
//   ./build/bench/batched_crypto            # full run (N = 10^6)
//   ./build/bench/batched_crypto --smoke    # tiny grid, JSON plumbing
//   ./build/bench/batched_crypto --threads=1,2,4   # cold-start sweep
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
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
    std::vector<crypto::PrfKey> scheduled;
    scheduled.reserve(pairs);
    watch.Restart();
    for (const Bytes& key : keys) scheduled.emplace_back(key);
    const double schedule_ms = watch.ElapsedMillis();
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
        crypto::hmac_internal::HmacSha256With(  // lint:allow(zeroize)
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
    const double hm256_scheduled_ms = time_ms([&] {
      for (size_t i = 0; i < pairs; ++i) {
        crypto::EpochPrfSha256Into(scheduled[i], epoch, out.data() + 32 * i);  // lint:allow(zeroize)
      }
    });
    if (!agree(ref.data(), out.data(), 32)) {
      std::fprintf(stderr, "scheduled HM256 digest mismatch!\n");
      return 1;
    }
    const double hm256_batched_ms = time_ms([&] {
      crypto::EpochPrfSha256Batch(pairs, scheduled.data(), epoch, out.data());  // lint:allow(zeroize)
    });
    if (!agree(ref.data(), out.data(), 32)) {
      std::fprintf(stderr, "batched HM256 digest mismatch!\n");
      return 1;
    }
    const bool has_avx2 = crypto::sha256x8_internal::KernelAvailable(
        crypto::Sha256Kernel::kAvx2);
    double hm256_avx2_ms = 0;
    if (has_avx2) {
      hm256_avx2_ms = time_ms([&] {
        crypto::sha256x8_internal::PrfSha256BatchWithKernel(  // lint:allow(zeroize)
            crypto::Sha256Kernel::kAvx2, pairs, scheduled.data(), epoch_view,
            out.data());
      });
      if (!agree(ref.data(), out.data(), 32)) {
        std::fprintf(stderr, "AVX2 batched HM256 digest mismatch!\n");
        return 1;
      }
    }
    const double hm256_best_ms = std::min(
        {hm256_oneshot_ms, hm256_scheduled_ms, hm256_batched_ms});
    const double hm256_speedup =
        hm256_best_ms > 0 ? hm256_portable_ms / hm256_best_ms : 0;
    std::printf("hmac_micro  %zu HM256: portable %.2f ms, one-shot %.2f ms "
                "(%s), scheduled %.2f ms, batched %.2f ms (%s), AVX2 "
                "batched %.2f ms; %zu schedules built in %.2f ms: %.2fx "
                "accelerated over portable (target >= 4x: %s)\n",
                pairs, hm256_portable_ms, hm256_oneshot_ms, oneshot_kernel,
                hm256_scheduled_ms, hm256_batched_ms, kernel, hm256_avx2_ms,
                pairs, schedule_ms, hm256_speedup,
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
      row.Add("scheduled_ms", hm256_scheduled_ms);
      row.Add("batched_ms", hm256_batched_ms);
      if (has_avx2) row.Add("avx2_batched_ms", hm256_avx2_ms);
      row.Add("schedule_ms", schedule_ms);
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
        crypto::hmac_internal::HmacSha1With(  // lint:allow(zeroize)
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
    const double hm1_scheduled_ms = time_ms([&] {
      for (size_t i = 0; i < pairs; ++i) {
        crypto::EpochPrfSha1Into(scheduled[i], epoch, out.data() + 20 * i);  // lint:allow(zeroize)
      }
    });
    if (!agree(ref.data(), out.data(), 20)) {
      std::fprintf(stderr, "scheduled HM1 digest mismatch!\n");
      return 1;
    }
    const double hm1_best_ms = std::min(hm1_oneshot_ms, hm1_scheduled_ms);
    const double hm1_speedup =
        hm1_best_ms > 0 ? hm1_portable_ms / hm1_best_ms : 0;
    std::printf("hm1_micro   %zu HM1: portable %.2f ms, one-shot %.2f ms "
                "(%s), scheduled %.2f ms: %.2fx accelerated over portable "
                "(target >= 4x: %s)\n",
                pairs, hm1_portable_ms, hm1_oneshot_ms, oneshot_kernel,
                hm1_scheduled_ms, hm1_speedup,
                hm1_speedup >= 4.0 ? "met" : "NOT met");
    bench::JsonObject row;
    row.Add("kind", "hm1_micro");
    row.Add("pairs", static_cast<uint64_t>(pairs));
    row.Add("reps", reps);
    row.Add("oneshot_kernel", oneshot_kernel);
    row.Add("portable_ms", hm1_portable_ms);
    row.Add("oneshot_ms", hm1_oneshot_ms);
    row.Add("scheduled_ms", hm1_scheduled_ms);
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
    Bytes psrs(width * n);  // PSR i at psrs.data() + i * width

    for (uint32_t threads : thread_counts) {
      std::unique_ptr<common::ThreadPool> pool;
      if (threads != 1) pool = std::make_unique<common::ThreadPool>(threads);

      auto run = [&](size_t count, const std::function<void(size_t)>& fn) {
        if (pool != nullptr) {
          pool->ParallelFor(count, fn);
        } else {
          for (size_t j = 0; j < count; ++j) fn(j);
        }
      };
      // Phase 1: build the sources — each schedules K and k_i, once per
      // deployment, so that is timed apart — then every source encrypts
      // into its slot of the shared buffer with zero per-source heap
      // allocation (the buffer is reused across thread counts, i.e.
      // across epochs in a deployment). Blocks of sources keep at most
      // kBlock alive.
      constexpr size_t kBlock = size_t{1} << 14;
      std::vector<std::optional<core::Source>> block(
          std::min<size_t>(kBlock, n));
      double setup_ms = 0;
      double create_ms = 0;
      for (size_t begin = 0; begin < n; begin += kBlock) {
        const size_t count = std::min<size_t>(kBlock, n - begin);
        watch.Restart();
        run(count, [&](size_t j) {
          const auto i = static_cast<uint32_t>(begin + j);
          block[j].emplace(params, i, core::KeysForSource(qkeys, i).value());
        });
        setup_ms += watch.ElapsedMillis();
        watch.Restart();
        run(count, [&](size_t j) {
          uint8_t* slot = psrs.data() + (begin + j) * width;
          if (!block[j]->CreatePsrInto(1, 1, slot).ok()) std::abort();
        });
        create_ms += watch.ElapsedMillis();
      }
      block.clear();

      // Phase 2: one contiguous fold over the buffer.
      Bytes final_psr(width);
      watch.Restart();
      if (!agg.MergeContiguous(psrs.data(), n, final_psr.data()).ok()) {
        return 1;
      }
      double merge_ms = watch.ElapsedMillis();

      // Phase 3: the fig6a cold querier evaluation — all N k_{i,t} and
      // ss_{i,t} derivations through the batched kernel, fanned out over
      // the pool in derivation groups.
      watch.Restart();
      core::Querier querier(params, qkeys);
      const double querier_setup_ms = watch.ElapsedMillis();
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

      std::printf("cold_start  N=%u threads=%u: source setup %.1f ms, "
                  "create %.1f ms, merge %.1f ms, querier setup %.1f ms, "
                  "cold evaluate %.1f ms\n",
                  n, threads, setup_ms, create_ms, merge_ms,
                  querier_setup_ms, cold_ms);
      bench::JsonObject row;
      row.Add("kind", "cold_start");
      row.Add("n", n);
      row.Add("threads", threads);
      row.Add("reps", reps);
      row.Add("kernel", kernel);
      row.Add("source_setup_ms", setup_ms);
      row.Add("psr_create_ms", create_ms);
      row.Add("merge_ms", merge_ms);
      row.Add("querier_setup_ms", querier_setup_ms);
      row.Add("cold_evaluate_ms", cold_ms);
      report.AddRow(std::move(row));
    }
  }

  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

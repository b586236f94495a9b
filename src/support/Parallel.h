//===- support/Parallel.h - Index-parallel loop ------------------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one parallel primitive: fan an index range out over a
/// few threads. The campaign runners use it to run independent seed
/// campaigns side by side, and the ablation benches to run independent
/// variants. Callers that need deterministic results write iteration I's
/// outcome to slot I and reduce in index order afterwards, so the thread
/// count changes wall-clock only.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_SUPPORT_PARALLEL_H
#define PFUZZ_SUPPORT_PARALLEL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace pfuzz {

/// std::thread::hardware_concurrency with a floor of 1 (the standard
/// allows it to report 0).
inline unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

/// Runs Fn(I) for every I in [Begin, End) and returns once all calls
/// finished. The calling thread and up to MaxConcurrency - 1 fresh
/// std::threads pull indices from one atomic counter; \p MaxConcurrency 0
/// means hardwareThreads(). With a cap of 1 every call runs on the
/// calling thread in index order. Every iteration runs even after one
/// throws; the exception of the lowest throwing index is rethrown. No
/// pool is involved, so a body may itself call parallelFor.
template <typename FnT>
void parallelFor(size_t Begin, size_t End, FnT &&Fn,
                 size_t MaxConcurrency = 0) {
  if (End <= Begin)
    return;
  size_t N = End - Begin;
  size_t Threads = std::min<size_t>(
      MaxConcurrency == 0 ? hardwareThreads() : MaxConcurrency, N);
  std::atomic<size_t> Next{0};
  std::vector<std::exception_ptr> Errors(N);
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;) {
      try {
        Fn(Begin + I);
      } catch (...) {
        Errors[I] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> Helpers;
  Helpers.reserve(Threads - 1);
  try {
    for (size_t T = 1; T < Threads; ++T)
      Helpers.emplace_back(Work);
  } catch (const std::system_error &) {
    // Out of threads: the helpers already started and this thread still
    // drain every index.
  }
  Work();
  for (std::thread &T : Helpers)
    T.join();
  for (std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}

} // namespace pfuzz

#endif // PFUZZ_SUPPORT_PARALLEL_H

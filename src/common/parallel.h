#ifndef GDIM_COMMON_PARALLEL_H_
#define GDIM_COMMON_PARALLEL_H_

#include <functional>

namespace gdim {

/// Number of worker threads used by ParallelFor (hardware concurrency,
/// clamped to [1, 16]).
int DefaultThreadCount();

/// Runs fn(i) for i in [begin, end) across a transient pool of threads.
///
/// Work is handed out in dynamic chunks via an atomic cursor, so uneven item
/// costs (e.g. MCS pairs) balance well. fn must be thread-safe with respect
/// to distinct i. Falls back to a serial loop when the range is small or
/// threads == 1.
///
/// Clang's thread-safety analysis (common/sync.h) does not see through the
/// std::function boundary: fn bodies are analyzed as standalone functions,
/// so capabilities held by the caller do not carry into fn. Don't touch
/// GDIM_GUARDED_BY state inside fn without locking there.
void ParallelFor(int begin, int end, const std::function<void(int)>& fn,
                 int threads = 0);

}  // namespace gdim

#endif  // GDIM_COMMON_PARALLEL_H_

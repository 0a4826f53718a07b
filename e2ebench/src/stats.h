#ifndef SAQL_E2EBENCH_STATS_H_
#define SAQL_E2EBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace e2e {

/// Monotonic wall clock, nanoseconds.
int64_t NowNs();

/// CPU time of the whole process (all threads), nanoseconds.
int64_t ProcessCpuNs();

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// A numeric field of /proc/self/status ("VmRSS", "VmHWM", "Threads");
/// -1 when absent. Memory fields are in kB.
long ProcStatus(const char* key);

/// Resets the process's peak RSS (VmHWM) to its current RSS, so a later
/// VmHWM covers only what follows. False when the kernel refuses.
bool ResetPeakRss();

}  // namespace e2e

#endif  // SAQL_E2EBENCH_STATS_H_

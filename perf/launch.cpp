// pmsb_launch — runs one command and reports its exit status, wall time,
// CPU time and peak RSS as one JSON line on stdout.
//
// perf/run.py measures every pmsbsim process through this launcher rather
// than with os.wait4 from Python: Linux folds the RSS high-water mark of a
// process's pre-exec image into its ru_maxrss, so a child forked straight
// from the (larger) Python process would report that process's RSS whenever
// its own is smaller. The launcher's own image is a few MB.
//
// usage: pmsb_launch LOG PROGRAM [ARGS...]
//   LOG receives the child's stdout and stderr.
// prints {"end_ns":..,"exit_code":..,"maxrss_kb":..,"signal":..,
//         "start_ns":..,"stime_s":..,"utime_s":..,"wall_s":..}
// start_ns / end_ns are CLOCK_MONOTONIC, the clock of Python's
// time.monotonic_ns(), so run.py can place the run in its span tree.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>

namespace {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: pmsb_launch LOG PROGRAM [ARGS...]\n");
    return 2;
  }
  const int log = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log < 0) {
    std::perror("pmsb_launch: cannot open log");
    return 2;
  }
  const std::int64_t start = monotonic_ns();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("pmsb_launch: fork");
    return 2;
  }
  if (pid == 0) {
    if (dup2(log, STDOUT_FILENO) < 0 || dup2(log, STDERR_FILENO) < 0) _exit(127);
    execvp(argv[2], argv + 2);
    std::perror("pmsb_launch: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("pmsb_launch: wait4");
    return 2;
  }
  const std::int64_t end = monotonic_ns();
  close(log);
  std::printf(
      "{\"end_ns\":%lld,\"exit_code\":%d,\"maxrss_kb\":%ld,\"signal\":%d,"
      "\"start_ns\":%lld,\"stime_s\":%.6f,\"utime_s\":%.6f,\"wall_s\":%.9f}\n",
      static_cast<long long>(end), WIFEXITED(status) ? WEXITSTATUS(status) : -1,
      usage.ru_maxrss, WIFSIGNALED(status) ? WTERMSIG(status) : 0,
      static_cast<long long>(start), seconds(usage.ru_stime), seconds(usage.ru_utime),
      static_cast<double>(end - start) * 1e-9);
  return 0;
}

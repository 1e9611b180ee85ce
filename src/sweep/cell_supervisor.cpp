#include "sweep/cell_supervisor.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "faults/watchdog.hpp"
#include "sweep/scenario_run.hpp"

namespace pmsb::sweep {

namespace {

// Child exit-code protocol (see the header).
constexpr int kChildOk = 0;
constexpr int kChildThrow = 2;
constexpr int kChildOom = 3;
constexpr int kChildTimeout = 4;

/// Largest diagnostic the child ships back. Well under the kernel pipe
/// buffer, so the child's write never blocks against a parent that is only
/// waiting, and the parent's read is bounded.
constexpr std::size_t kMaxErrorBytes = 8192;

void write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // best effort: the exit code still classifies the failure
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

std::string read_pipe(int fd) {
  std::string out;
  char buf[4096];
  while (out.size() < kMaxErrorBytes) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// Everything the child does between fork() and _Exit(). Never returns.
/// fork() from a threaded sweep worker is glibc-supported (malloc locks are
/// reset by the fork handlers), but the child stays conservative anyway: it
/// runs one scenario, writes its files, and leaves via _Exit so inherited
/// stdio buffers are never double-flushed and no destructors of the
/// parent's state run here.
[[noreturn]] void child_main(const SweepPoint& point, const CellLimits& limits,
                             int attempt, const std::string& record_path,
                             int error_fd) {
  if (limits.mem_mb > 0) {
    rlimit as{};
    as.rlim_cur = as.rlim_max =
        static_cast<rlim_t>(limits.mem_mb) * 1024ull * 1024ull;
    (void)::setrlimit(RLIMIT_AS, &as);
  }
  rlimit core{};  // a crashing cell is diagnosed via its record,
  core.rlim_cur = core.rlim_max = 0;  // not via core dumps littering CI
  (void)::setrlimit(RLIMIT_CORE, &core);

  char attempt_buf[16];
  std::snprintf(attempt_buf, sizeof(attempt_buf), "%d", attempt);
  ::setenv("PMSB_CRASH_ATTEMPT", attempt_buf, 1);

  int code = kChildOk;
  std::string error;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    RunRecord rec = run_scenario(point, /*quiet=*/true);
    if (!record_path.empty()) {
      rec.attempts = static_cast<std::size_t>(attempt);
      rec.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      rec.manifest_path = record_path;
      write_cell_record(record_path, point, rec);
    }
  } catch (const faults::WallBudgetExceeded& e) {
    code = kChildTimeout;
    error = e.what();
  } catch (const std::bad_alloc&) {
    code = kChildOom;
    error = "[oom] std::bad_alloc";
    if (limits.mem_mb > 0) {
      error += " under cell_mem_mb=" + std::to_string(limits.mem_mb);
    }
  } catch (const std::exception& e) {
    code = kChildThrow;
    error = e.what();
  } catch (...) {
    code = kChildThrow;
    error = "non-std exception";
  }
  if (!error.empty()) {
    if (error.size() > kMaxErrorBytes) error.resize(kMaxErrorBytes);
    write_all(error_fd, error.data(), error.size());
  }
  ::close(error_fd);
  std::_Exit(code);
}

}  // namespace

const char* exit_class_name(ExitClass c) {
  switch (c) {
    case ExitClass::kOk: return "ok";
    case ExitClass::kThrow: return "throw";
    case ExitClass::kSignal: return "signal";
    case ExitClass::kTimeout: return "timeout";
    case ExitClass::kOom: return "oom";
  }
  return "unknown";
}

bool exit_class_retryable(ExitClass c) {
  return c == ExitClass::kSignal || c == ExitClass::kTimeout ||
         c == ExitClass::kOom;
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    default: return "signal " + std::to_string(sig);
  }
}

CellOutcome run_cell_in_child(const SweepPoint& point, const CellLimits& limits,
                              int attempt, const std::string& record_path) {
  CellOutcome out;
  const auto t0 = std::chrono::steady_clock::now();

  int fds[2];
  if (::pipe(fds) != 0) {
    out.exit_class = ExitClass::kThrow;
    out.error = std::string("pipe failed: ") + std::strerror(errno);
    return out;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.exit_class = ExitClass::kThrow;
    out.error = std::string("fork failed: ") + std::strerror(errno);
    return out;
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_main(point, limits, attempt, record_path, fds[1]);  // never returns
  }
  ::close(fds[1]);

  // Hard kill past the wall budget, with headroom so the in-child watchdog
  // (which produces the nicer, deterministic diagnostic) trips first when
  // the child is still dispatching events.
  const double hard_kill_s =
      limits.wall_s > 0.0 ? limits.wall_s * 1.25 + 0.5 : 0.0;
  int status = 0;
  rusage ru{};
  while (true) {
    const pid_t r = ::wait4(pid, &status, WNOHANG, &ru);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) {
      out.exit_class = ExitClass::kThrow;
      out.error = std::string("wait4 failed: ") + std::strerror(errno);
      ::close(fds[0]);
      return out;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (hard_kill_s > 0.0 && elapsed >= hard_kill_s) {
      ::kill(pid, SIGKILL);
      out.hard_killed = true;
      while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  out.error = read_pipe(fds[0]);
  ::close(fds[0]);
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.peak_rss_bytes = static_cast<double>(ru.ru_maxrss) * 1024.0;

  if (out.hard_killed) {
    out.exit_class = ExitClass::kTimeout;
    out.exit_signal = SIGKILL;
    std::ostringstream why;
    why << "[cell_timeout] hard kill: wall-clock limit " << limits.wall_s
        << "s exceeded and the cell never ran its deadline tick "
           "(wedged callback or event starvation); supervisor sent SIGKILL";
    out.error = why.str();
    return out;
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    out.exit_signal = sig;
    // A SIGKILL the parent did not send, while an address-space cap was in
    // force and mostly consumed, is the kernel OOM killer.
    const double cap_bytes =
        static_cast<double>(limits.mem_mb) * 1024.0 * 1024.0;
    if (sig == SIGKILL && limits.mem_mb > 0 &&
        out.peak_rss_bytes >= 0.9 * cap_bytes) {
      out.exit_class = ExitClass::kOom;
      out.error = "[oom] child SIGKILLed near the cell_mem_mb=" +
                  std::to_string(limits.mem_mb) + " cap (peak rss " +
                  std::to_string(static_cast<long long>(out.peak_rss_bytes)) +
                  " bytes)";
    } else {
      out.exit_class = ExitClass::kSignal;
      out.error = "[signal] child terminated by " + signal_name(sig);
    }
    return out;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  out.exit_code = code;
  switch (code) {
    case kChildOk:
      out.exit_class = ExitClass::kOk;
      out.error.clear();
      break;
    case kChildThrow:
      out.exit_class = ExitClass::kThrow;
      if (out.error.empty()) out.error = "child exited with code 2 (no diagnostic)";
      break;
    case kChildOom:
      out.exit_class = ExitClass::kOom;
      if (out.error.empty()) out.error = "[oom] std::bad_alloc";
      break;
    case kChildTimeout:
      out.exit_class = ExitClass::kTimeout;
      if (out.error.empty()) out.error = "[cell_timeout] deadline exceeded";
      break;
    default:
      out.exit_class = ExitClass::kThrow;
      out.error = "child exited with unexpected code " + std::to_string(code) +
                  (out.error.empty() ? "" : ": " + out.error);
      break;
  }
  return out;
}

}  // namespace pmsb::sweep

#include "sweep/crash_inject.hpp"

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace pmsb::sweep {

namespace {

[[noreturn]] void crash_segv() {
  // raise() rather than a null write: the delivered signal is identical but
  // the source stays free of undefined behavior.
  std::raise(SIGSEGV);
  std::abort();  // unreachable unless SIGSEGV is blocked
}

[[noreturn]] void crash_oom() {
  // Allocate and touch until the allocator gives up. Under the supervisor's
  // RLIMIT_AS cap this throws within a few iterations; the 8 GiB ceiling
  // keeps an uncapped invocation from taking down the host.
  constexpr std::size_t kChunk = 16ull << 20;
  constexpr std::size_t kCeiling = 8ull << 30;
  std::vector<std::unique_ptr<char[]>> hog;
  for (std::size_t total = 0; total < kCeiling; total += kChunk) {
    hog.push_back(std::make_unique<char[]>(kChunk));
    std::memset(hog.back().get(), 0x5a, kChunk);
  }
  throw std::bad_alloc();
}

[[noreturn]] void crash_hang() {
  // Never returns, never schedules, never yields — exactly the wedged-cell
  // shape the in-process watchdog cannot interrupt.
  volatile std::uint64_t spin = 0;
  for (;;) spin = spin + 1;
}

}  // namespace

void maybe_inject_crash(std::size_t cell_index) {
  const char* spec = std::getenv("PMSB_CRASH_AT");
  if (spec == nullptr || *spec == '\0') return;
  int attempt = 1;
  if (const char* a = std::getenv("PMSB_CRASH_ATTEMPT")) {
    attempt = std::atoi(a);
    if (attempt <= 0) attempt = 1;
  }

  const std::string all(spec);
  std::size_t start = 0;
  while (start <= all.size()) {
    const std::size_t comma = all.find(',', start);
    const std::string entry =
        all.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    start = comma == std::string::npos ? all.size() + 1 : comma + 1;
    if (entry.empty()) continue;

    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("PMSB_CRASH_AT: entry '" + entry +
                                  "' is not <cell>:<mode>[@<attempt>]");
    }
    const std::size_t cell =
        static_cast<std::size_t>(std::strtoull(entry.c_str(), nullptr, 10));
    std::string mode = entry.substr(colon + 1);
    int only_attempt = 0;  // 0 = every attempt
    if (const std::size_t at = mode.find('@'); at != std::string::npos) {
      only_attempt = std::atoi(mode.c_str() + at + 1);
      mode.resize(at);
    }
    if (cell != cell_index) continue;
    if (only_attempt != 0 && only_attempt != attempt) continue;

    if (mode == "segv") crash_segv();
    if (mode == "oom") crash_oom();
    if (mode == "hang") crash_hang();
    if (mode == "throw") {
      throw std::runtime_error("[crash_at] injected throw (cell " +
                               std::to_string(cell_index) + ", attempt " +
                               std::to_string(attempt) + ")");
    }
    throw std::invalid_argument("PMSB_CRASH_AT: unknown mode '" + mode + "'");
  }
}

}  // namespace pmsb::sweep

// pmsb_ref — a fixed amount of register-only integer work (a xorshift
// generator reduced modulo a prime), about 0.15 s on the reference host.
//
// perf/run.py runs it next to every timed pmsbsim run and scales the
// end-to-end times by how fast it ran: it shares no code with the simulator,
// so a change to the simulator cannot move it, while the host's clock speed
// (which drifts by up to a quarter between minutes on a shared host) moves
// both alike. See "Host speed" in perf/README.md.
//
// usage: pmsb_ref   (no arguments; exit status 0)
#include <cstdint>
#include <cstdio>

int main() {
  constexpr std::uint64_t kIterations = 60'000'000;
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x % 1'000'003;
  }
  // acc can never reach this; the comparison keeps the loop from being elided.
  if (acc == 42) std::puts("unreachable");
  return 0;
}

// Host-speed reference. The hosts this benchmark runs on change speed by up
// to 3x over minutes (other tenants); trial timings move with them. A fixed
// piece of CPU work — a binary-heap event loop over a frozen pseudo-random
// schedule, independent of the library so no change to src/ moves it — is
// timed between batches, and every end-to-end time is scaled by
// kNominalReferenceS / (the reference time around its batch): seconds "at
// nominal host speed", the speed at which the reference takes 20 ms.
#pragma once

namespace perfbench {

inline constexpr double kNominalReferenceS = 0.020;

// Thread CPU seconds of one run of the reference work; with `threads` > 1,
// the median over that many concurrent runs, which measures the host as a
// pool of that many workers loads it.
double reference_s(int threads = 1);

}  // namespace perfbench

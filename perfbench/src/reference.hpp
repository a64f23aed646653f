// Independent reference renderer for Virtual Microscope queries.
//
// Evaluates a query straight from benchPixel() and the operators'
// definitions (DESIGN.md §3, vm_executor.cpp), sharing no code with the
// program's executor or its test renderer:
//   subsample: output pixel (px, py) is input pixel (x0 + px*z, y0 + py*z);
//   average:   each channel is (sum over the z x z window + z*z/2) / (z*z),
//              in integer arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "vm/vm_predicate.hpp"

namespace perfbench {

/// The exact image of `q` over the slide with seed `slideSeed`.
std::vector<std::uint8_t> renderReference(const mqs::vm::VMPredicate& q,
                                          std::uint64_t slideSeed);

/// Largest per-channel deviation an averaging image may carry when the
/// server assembled it by projecting cached averages: projecting a zoom-c
/// average into zoom z re-averages rounded values (vm_executor.cpp), and
/// each such re-rounding adds at most half a level. A zoom-z image can pass
/// through at most (prime factors of z) - 1 of them, so the bound is
/// floor((d + 2) / 2) for d >= 1 re-roundings and 0 when d = 0.
int averagingTolerance(std::uint32_t zoom);

/// Compares `got` with the reference image. `tolerance` 0 demands byte
/// equality. Returns an empty string when the image passes, else a
/// description of the first mismatch. `maxDiff` receives the largest
/// per-channel difference seen.
std::string checkImage(const mqs::vm::VMPredicate& q, std::uint64_t slideSeed,
                       std::span<const std::byte> got, int tolerance,
                       int* maxDiff = nullptr);

}  // namespace perfbench

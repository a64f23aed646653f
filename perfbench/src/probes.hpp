// Probes on the extension interfaces the benchmark supplies to the program:
// a QuerySemantics that counts overlap evaluations, a QueryExecutor that
// times execute() and project(), and a simulator cost model that sums the
// modeled CPU it hands out. Each delegates to the program's Virtual
// Microscope implementation, so the program computes exactly what it would
// without them; the server workloads install the first two only in traced
// runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "query/executor.hpp"
#include "query/semantics.hpp"
#include "sim/sim_server.hpp"
#include "sim/vm_model.hpp"
#include "vm/vm_executor.hpp"
#include "vm/vm_semantics.hpp"

namespace perfbench {

class CountingSemantics final : public mqs::query::QuerySemantics {
 public:
  explicit CountingSemantics(const mqs::vm::VMSemantics* inner)
      : inner_(inner) {}

  // cmp() keeps the base definition, which goes through overlap() below.
  [[nodiscard]] double overlap(const mqs::query::Predicate& cached,
                               const mqs::query::Predicate& q) const override {
    overlapCalls.fetch_add(1, std::memory_order_relaxed);
    return inner_->overlap(cached, q);
  }
  [[nodiscard]] std::uint64_t qoutsize(
      const mqs::query::Predicate& p) const override {
    return inner_->qoutsize(p);
  }
  [[nodiscard]] std::uint64_t qinputsize(
      const mqs::query::Predicate& p) const override {
    return inner_->qinputsize(p);
  }
  [[nodiscard]] mqs::Rect coveredRegion(
      const mqs::query::Predicate& cached,
      const mqs::query::Predicate& q) const override {
    return inner_->coveredRegion(cached, q);
  }
  [[nodiscard]] std::vector<mqs::query::PredicatePtr> remainder(
      const mqs::query::Predicate& cached,
      const mqs::query::Predicate& q) const override {
    return inner_->remainder(cached, q);
  }
  [[nodiscard]] std::vector<mqs::query::PredicatePtr> coveredParts(
      const mqs::query::Predicate& cached,
      const mqs::query::Predicate& q) const override {
    return inner_->coveredParts(cached, q);
  }
  [[nodiscard]] std::uint64_t reusedOutputBytes(
      const mqs::query::Predicate& cached,
      const mqs::query::Predicate& q) const override {
    return inner_->reusedOutputBytes(cached, q);
  }

  mutable std::atomic<std::uint64_t> overlapCalls{0};

 private:
  const mqs::vm::VMSemantics* inner_;
};

class TimedExecutor final : public mqs::query::QueryExecutor {
 public:
  TimedExecutor(const mqs::vm::VMExecutor* inner,
                const mqs::vm::VMSemantics* semantics)
      : inner_(inner), sem_(semantics) {}

  [[nodiscard]] std::vector<std::byte> execute(
      const mqs::query::Predicate& pred,
      mqs::pagespace::PageSpaceManager& ps) const override {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::byte> out = inner_->execute(pred, ps);
    executeNs.fetch_add(elapsedNs(t0), std::memory_order_relaxed);
    executeCalls.fetch_add(1, std::memory_order_relaxed);
    inputBytes.fetch_add(sem_->qinputsize(pred), std::memory_order_relaxed);
    return out;
  }

  void project(const mqs::query::Predicate& cached,
               std::span<const std::byte> cachedPayload,
               const mqs::query::Predicate& out,
               std::span<std::byte> outBuffer) const override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->project(cached, cachedPayload, out, outBuffer);
    projectNs.fetch_add(elapsedNs(t0), std::memory_order_relaxed);
    projectCalls.fetch_add(1, std::memory_order_relaxed);
  }

  mutable std::atomic<std::uint64_t> executeNs{0};
  mutable std::atomic<std::uint64_t> executeCalls{0};
  mutable std::atomic<std::uint64_t> inputBytes{0};
  mutable std::atomic<std::uint64_t> projectNs{0};
  mutable std::atomic<std::uint64_t> projectCalls{0};

 private:
  static std::uint64_t elapsedNs(std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  const mqs::vm::VMExecutor* inner_;
  const mqs::vm::VMSemantics* sem_;
};

/// The simulator's VM cost model, summing the modeled CPU seconds of every
/// compute demand it returns (the simulator charges each one exactly once).
class CountingModel final : public mqs::sim::AppModel {
 public:
  CountingModel(const mqs::vm::VMSemantics* semantics,
                const mqs::sim::SimConfig& cfg)
      : inner_(semantics, cfg.cpuPerByteSubsample, cfg.cpuPerByteAverage) {}

  [[nodiscard]] std::vector<mqs::sim::ChunkDemand> demandFor(
      const mqs::query::Predicate& part) const override {
    std::vector<mqs::sim::ChunkDemand> d = inner_.demandFor(part);
    for (const auto& c : d) cpuSeconds += c.cpuSeconds;
    return d;
  }

  mutable double cpuSeconds = 0.0;

 private:
  mqs::sim::VMModel inner_;
};

}  // namespace perfbench

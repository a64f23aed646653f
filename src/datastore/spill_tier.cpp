#include "datastore/spill_tier.hpp"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.hpp"

namespace mqs::datastore {

namespace fs = std::filesystem;

SpillTier::SpillTier(std::uint64_t capacityBytes,
                     const query::QuerySemantics* semantics, std::string dir,
                     storage::DiskModel disk)
    : capacity_(capacityBytes), semantics_(semantics), dir_(std::move(dir)),
      disk_(disk) {
  MQS_CHECK(semantics_ != nullptr);
  if (!dir_.empty()) {
    std::error_code ec;
    createdDir_ = fs::create_directories(dir_, ec);
    MQS_CHECK_MSG(!ec, "cannot create spill directory '" + dir_ + "'");
    writer_ = std::thread([this] { writerLoop(); });
  }
}

SpillTier::~SpillTier() {
  writeQueue_.close();
  if (writer_.joinable()) writer_.join();
  // Idempotent cleanup (scripts/reproduce.sh reruns benches in place):
  // remove every payload file we persisted, then the directory itself if
  // this tier created it and nothing else moved in.
  // Unlink outside the lock: fs::remove hits the disk, and mu_ is a
  // leaf rank that must never be held across blocking I/O (DESIGN.md
  // §9; mqs-analyze blocking-under-lock).
  std::vector<std::string> deadFiles;
  if (!dir_.empty()) {
    MutexLock lock(mu_);
    for (const auto& [id, entry] : entries_) {
      if (entry.persisted) deadFiles.push_back(pathFor(id));
    }
  }
  for (const auto& path : deadFiles) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  if (createdDir_) {
    std::error_code ec;
    fs::remove(dir_, ec);  // fails harmlessly if non-empty
  }
}

std::string SpillTier::pathFor(SpillId id) const {
  return dir_ + "/spill-" + std::to_string(id) + ".bin";
}

void SpillTier::emitSpillGaugeLocked() {
  if (tracer_ != nullptr) {
    tracer_->counter(trace::CounterKind::DsSpillBytes, resident_);
  }
}

void SpillTier::dropLocked(SpillId id, std::vector<std::string>& deadFiles) {
  auto it = entries_.find(id);
  MQS_DCHECK(it != entries_.end());
  resident_ -= it->second.logicalBytes;
  const bool erased =
      spatial_.erase(it->second.predicate->boundingBox(), id);
  MQS_DCHECK(erased);
  (void)erased;
  if (it->second.persisted) deadFiles.push_back(pathFor(id));
  entries_.erase(it);
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<SpillId> SpillTier::demote(EvictedBlob blob,
                                         std::vector<SpillId>* dropped) {
  MQS_CHECK(blob.predicate != nullptr);
  if (blob.logicalBytes > capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::vector<std::string> deadFiles;
  SpillId id = 0;
  {
    MutexLock lock(mu_);
    while (resident_ + blob.logicalBytes > capacity_) {
      MQS_DCHECK(!fifo_.empty());
      const SpillId victim = fifo_.front();
      fifo_.pop_front();
      dropLocked(victim, deadFiles);
      if (dropped != nullptr) dropped->push_back(victim);
    }
    id = nextId_++;
    Entry entry;
    entry.predicate = std::move(blob.predicate);
    entry.payload = std::move(blob.payload);
    entry.logicalBytes = blob.logicalBytes;
    entry.recomputeCostSec = blob.recomputeCostSec;
    spatial_.insert(entry.predicate->boundingBox(), id);
    entries_.emplace(id, std::move(entry));
    fifo_.push_back(id);
    resident_ += blob.logicalBytes;
    if (!dir_.empty()) ++pendingWrites_;
    demoted_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::DsSpill);
    emitSpillGaugeLocked();
  }
  for (const auto& path : deadFiles) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  if (!dir_.empty() && !writeQueue_.push(id)) {
    // Shutdown raced the demote; settle the write-out accounting.
    MutexLock lock(mu_);
    if (--pendingWrites_ == 0) drained_.notifyAll();
  }
  return id;
}

void SpillTier::writerLoop() {
  while (auto idOpt = writeQueue_.pop()) {
    const SpillId id = *idOpt;
    std::vector<std::byte> payload;
    {
      MutexLock lock(mu_);
      auto it = entries_.find(id);
      if (it == entries_.end() || it->second.persisted) {
        // Dropped or restored before the write-out got scheduled.
        if (--pendingWrites_ == 0) drained_.notifyAll();
        continue;
      }
      payload = it->second.payload;  // copy: the write runs unlocked
    }
    const std::string path = pathFor(id);
    bool written = false;
    if (std::FILE* f = std::fopen(path.c_str(), "wb"); f != nullptr) {
      written = payload.empty() ||
                std::fwrite(payload.data(), 1, payload.size(), f) ==
                    payload.size();
      written = std::fclose(f) == 0 && written;
    }
    bool orphaned = false;
    {
      MutexLock lock(mu_);
      auto it = entries_.find(id);
      if (it != entries_.end() && written) {
        it->second.payload.clear();
        it->second.payload.shrink_to_fit();
        it->second.persisted = true;
        writeouts_.fetch_add(1, std::memory_order_relaxed);
      } else if (written) {
        // The entry vanished while we wrote; the file is orphaned. Unlink
        // after dropping mu_ — this loop runs on the demote/restore hot
        // path and must not hold a leaf lock across disk I/O.
        orphaned = true;
      }
      if (--pendingWrites_ == 0) drained_.notifyAll();
    }
    if (orphaned) {
      std::error_code ec;
      fs::remove(path, ec);
    }
  }
}

std::vector<SpillTier::Match> SpillTier::lookupTopK(const query::Predicate& q,
                                                    std::size_t k,
                                                    double minOverlap) const {
  if (k == 0) return {};
  std::vector<Match> matches;
  {
    MutexLock lock(mu_);
    spatial_.queryIntersecting(
        q.boundingBox(), [&](const Rect&, std::uint64_t id) {
          const auto it = entries_.find(id);
          MQS_DCHECK(it != entries_.end());
          const double ov = semantics_->overlap(*it->second.predicate, q);
          if (ov > minOverlap) matches.push_back(Match{id, ov});
        });
  }
  std::sort(matches.begin(), matches.end(),
            [](const Match& a, const Match& b) {
              if (a.overlap != b.overlap) return a.overlap > b.overlap;
              return a.id > b.id;  // ties toward the newer entry
            });
  if (matches.size() > k) matches.resize(k);
  return matches;
}

std::optional<SpillTier::Candidate> SpillTier::candidate(SpillId id) const {
  MutexLock lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  Candidate c;
  c.predicate = it->second.predicate->clone();
  c.logicalBytes = it->second.logicalBytes;
  c.recomputeCostSec = it->second.recomputeCostSec;
  c.restoreCostSec = restoreCostSec(it->second.logicalBytes);
  return c;
}

std::optional<EvictedBlob> SpillTier::restore(SpillId id) {
  EvictedBlob blob;
  bool persisted = false;
  {
    MutexLock lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return std::nullopt;
    blob.id = id;
    blob.predicate = std::move(it->second.predicate);
    blob.payload = std::move(it->second.payload);
    blob.logicalBytes = it->second.logicalBytes;
    blob.recomputeCostSec = it->second.recomputeCostSec;
    persisted = it->second.persisted;
    resident_ -= it->second.logicalBytes;
    const bool erased = spatial_.erase(blob.predicate->boundingBox(), id);
    MQS_DCHECK(erased);
    (void)erased;
    entries_.erase(it);
    fifo_.remove(id);
    restored_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) tracer_->counter(trace::CounterKind::DsRestore);
    emitSpillGaugeLocked();
  }
  if (persisted) {
    // The file belongs to this entry alone now that it left the map (the
    // writer deletes only files whose entry vanished *before* the write
    // finished), so the read + unlink run safely unlocked.
    const std::string path = pathFor(id);
    if (std::FILE* f = std::fopen(path.c_str(), "rb"); f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      const long size = std::ftell(f);
      std::fseek(f, 0, SEEK_SET);
      if (size > 0) {
        blob.payload.resize(static_cast<std::size_t>(size));
        if (std::fread(blob.payload.data(), 1, blob.payload.size(), f) !=
            blob.payload.size()) {
          blob.payload.clear();
        }
      }
      std::fclose(f);
    }
    std::error_code ec;
    fs::remove(path, ec);
  }
  return blob;
}

SpillTier::Stats SpillTier::stats() const {
  Stats s;
  s.demoted = demoted_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.restored = restored_.load(std::memory_order_relaxed);
  s.writeouts = writeouts_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t SpillTier::residentBytes() const {
  MutexLock lock(mu_);
  return resident_;
}

std::size_t SpillTier::residentEntries() const {
  MutexLock lock(mu_);
  return entries_.size();
}

void SpillTier::flush() {
  MutexLock lock(mu_);
  while (pendingWrites_ > 0) drained_.wait(mu_);
}

}  // namespace mqs::datastore

#include "serve/context_pool.hpp"

#include <climits>
#include <cstdlib>

#include "cli/commands.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hp::serve {

std::size_t session_charge_bytes(cli::QuerySession& session) {
  const hyper::ContextStats stats = session.context.stats();
  return stats.total_bytes() + stats.hypergraph_owned_bytes +
         stats.hypergraph_mapped_bytes;
}

std::string canonical_key(const std::string& path) {
  char resolved[PATH_MAX];
  if (::realpath(path.c_str(), resolved) != nullptr) {
    return std::string{resolved};
  }
  return path;
}

ContextPool::ContextPool(std::size_t byte_budget)
    : byte_budget_(byte_budget) {}

ContextPool::Lease::Lease(Lease&& other) noexcept
    : pool_(other.pool_), key_(std::move(other.key_)),
      session_(std::move(other.session_)), hit_(other.hit_) {
  other.pool_ = nullptr;
}

ContextPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->release(key_);
}

ContextPool::Entry* ContextPool::find_locked(const std::string& key) {
  for (Entry& entry : entries_) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

ContextPool::Lease ContextPool::acquire(const std::string& path) {
  const std::string key = canonical_key(path);
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Entry* entry = find_locked(key);
    if (entry == nullptr) break;
    if (!entry->loading) {
      ++hits_;
      obs::counter("server.cache.hits").add(1);
      entry->last_used = ++tick_;
      ++entry->leases;
      return Lease{this, key, entry->session, /*hit=*/true};
    }
    // Another request is loading this key right now: wait for it
    // instead of loading a second copy (cache stampede).
    loaded_cv_.wait(lock);
  }

  ++misses_;
  obs::counter("server.cache.misses").add(1);
  entries_.push_back(Entry{key, nullptr, 0, ++tick_, 0, /*loading=*/true});

  std::shared_ptr<cli::QuerySession> session;
  lock.unlock();
  try {
    HP_TRACE_SPAN("serve.load_context");
    session =
        std::make_shared<cli::QuerySession>(cli::load_dataset(path));
  } catch (...) {
    lock.lock();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    loaded_cv_.notify_all();
    throw;
  }
  lock.lock();

  Entry* entry = find_locked(key);
  // The entry cannot have been evicted meanwhile: loading entries are
  // pinned and only this thread clears the flag.
  entry->session = session;
  entry->charged_bytes = session_charge_bytes(*session);
  entry->loading = false;
  entry->last_used = ++tick_;
  entry->leases = 1;
  evict_locked();
  loaded_cv_.notify_all();
  return Lease{this, key, std::move(session), /*hit=*/false};
}

void ContextPool::release(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_locked(key);
  if (entry == nullptr) return;
  --entry->leases;
  // Re-charge: the query may have built artifacts, so the footprint at
  // release differs from at acquire.
  entry->charged_bytes = session_charge_bytes(*entry->session);
  if (entry->leases == 0) evict_locked();
}

void ContextPool::evict_locked() {
  while (entries_.size() > 1) {
    std::size_t total = 0;
    for (const Entry& entry : entries_) total += entry.charged_bytes;
    if (total <= byte_budget_) return;

    std::size_t victim = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& entry = entries_[i];
      if (entry.leases > 0 || entry.loading) continue;
      if (entry.last_used == tick_) continue;  // the newest stays
      if (victim == entries_.size() ||
          entry.last_used < entries_[victim].last_used) {
        victim = i;
      }
    }
    if (victim == entries_.size()) return;  // everything pinned
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
    ++evictions_;
    obs::counter("server.cache.evictions").add(1);
  }
}

void ContextPool::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = entries_.size(); i-- > 0;) {
    if (entries_[i].leases > 0 || entries_[i].loading) continue;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    ++evictions_;
    obs::counter("server.cache.evictions").add(1);
  }
}

PoolStats ContextPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PoolStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  for (const Entry& entry : entries_) {
    stats.charged_bytes += entry.charged_bytes;
  }
  return stats;
}

std::vector<ChargedEntry> ContextPool::charged_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ChargedEntry> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back(ChargedEntry{entry.key, entry.charged_bytes,
                               entry.leases > 0});
  }
  return out;
}

}  // namespace hp::serve

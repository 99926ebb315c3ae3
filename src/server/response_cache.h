#ifndef AQUA_SERVER_RESPONSE_CACHE_H_
#define AQUA_SERVER_RESPONSE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "server/http.h"

namespace aqua {

/// Configuration of one ResponseCache.
struct ResponseCacheOptions {
  /// Entries kept across all scopes; a Store() at the cap first sweeps
  /// stale entries and is dropped only if everything left is fresh (bounds
  /// memory against unbounded distinct query strings).
  std::size_t max_entries = 4096;
  /// Responses larger than this are never cached.
  std::size_t max_entry_bytes = 1 << 20;
};

/// An epoch-keyed cache of fully serialized HTTP responses.
///
/// Gibbons & Matias' premise is that answers are computed from a small
/// synopsis frozen at a point in time — so two identical read requests
/// served within one epoch have *identical* responses, rendered bytes
/// included.  This cache exploits that: the key is the request's (method,
/// path, canonical query, keep-alive bit), the value is the ready-to-write
/// wire buffer (status line, headers, body) exactly as first rendered plus
/// the epoch it was rendered under, so a hit is a hash probe, an epoch
/// compare and a write — no JSON rendering, no snapshot pin, no registry
/// access.
///
/// Surgical, per-scope invalidation: every entry belongs to a *scope* (the
/// serving surface that owns its bytes — one catalog attribute, the
/// engine's stream, a /query target), and each scope carries its own
/// epoch.  A lookup or store passes the scope's current epoch; an entry
/// whose recorded epoch differs is stale and misses, but entries of OTHER
/// scopes are untouched — an epoch advance on attribute A leaves attribute
/// B's warmed entries (and their zero-alloc hit paths) intact.  Stale
/// entries are reclaimed lazily: a Store() on the same key overwrites in
/// place, and a Store() at the entry cap sweeps everything stale before
/// giving up.  Scopes are interned once (first occurrence allocates); the
/// legacy two-argument Lookup/Store forms use the default "" scope, which
/// reproduces the old process-wide behavior for callers with one epoch
/// domain.
///
/// Thread model: one instance per reactor, owned and accessed by that
/// reactor thread only — no locks anywhere.  The counters are relaxed
/// atomics purely so Stats() can be aggregated from other threads.
///
/// The hit path does not allocate: BuildKey() appends into an internal
/// buffer whose capacity persists across requests, the map probes use
/// C++20 heterogeneous lookup on string_view keys, and the returned
/// buffer is written to the socket in place.  (Verified by the
/// allocation-counting unit test in tests/server/response_cache_test.cc.)
class ResponseCache {
 public:
  explicit ResponseCache(const ResponseCacheOptions& options = {})
      : options_(options) {
    // Intern the default scope eagerly so the legacy two-argument forms
    // never allocate on their hit path.  Not yet "seen": its first
    // observed epoch is an interning, not an invalidation (see NoteScope).
    scope_ids_.emplace(std::string(), 0);
    scope_epochs_.push_back(0);
    scope_seen_.push_back(0);
  }

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// Builds the canonical cache key for `request` into the internal
  /// reusable buffer and returns a view of it.  Valid until the next
  /// BuildKey() call on this instance.
  std::string_view BuildKey(const HttpRequest& request);

  /// BuildKey() variant for routes with a custom canonicalizer (see
  /// RouteOptions::canonical_key): the canonical form replaces the raw
  /// query string in the key, so every spelling of one query shares one
  /// entry.  Returns false (and no key) when the canonicalizer rejects the
  /// request — the caller serves it uncached.
  bool BuildKeyWith(
      const HttpRequest& request,
      const std::function<bool(const HttpRequest&, std::string*)>& canonical,
      std::string_view* key);

  /// The cached wire bytes for `key` rendered under `scope`'s current
  /// `epoch`, or nullptr (counted as a miss).  An entry recorded under a
  /// different epoch of the same scope is stale: it misses (and will be
  /// overwritten by the re-render's Store) without touching any other
  /// scope's entries.
  const std::string* Lookup(std::string_view scope, std::uint64_t epoch,
                            std::string_view key);

  /// Lookup() variant returning the entry's shared_ptr cell so the caller
  /// can pin the wire bytes across an asynchronous send: a backend
  /// holding a copy of the shared_ptr keeps the buffer alive even if the
  /// entry is overwritten or evicted mid-send.  Copying the shared_ptr is
  /// refcount-only — the hit path stays allocation-free.  The returned
  /// pointer itself is valid until the next Store() on this instance.
  const std::shared_ptr<const std::string>* LookupPinned(
      std::string_view scope, std::uint64_t epoch, std::string_view key);

  /// Caches `wire` for `key` under (`scope`, `epoch`).  An existing entry
  /// for the key is overwritten in place (the usual stale-refresh path).
  /// Dropped (not an error) when the response is oversized, or when the
  /// entry cap is reached and sweeping stale entries frees nothing.
  void Store(std::string_view scope, std::uint64_t epoch,
             std::string_view key, std::string wire);

  /// Default-scope ("") forms for serving surfaces with a single epoch
  /// domain and for existing callers.
  const std::string* Lookup(std::uint64_t epoch, std::string_view key) {
    return Lookup(std::string_view(), epoch, key);
  }
  const std::shared_ptr<const std::string>* LookupPinned(
      std::uint64_t epoch, std::string_view key) {
    return LookupPinned(std::string_view(), epoch, key);
  }
  void Store(std::uint64_t epoch, std::string_view key, std::string wire) {
    Store(std::string_view(), epoch, key, std::move(wire));
  }

  /// Counts a request that skipped the cache (Cache-Control: no-cache).
  void CountBypass() { bypass_.fetch_add(1, std::memory_order_relaxed); }

  /// Counts a cacheable request served uncached because the serving epoch
  /// was unsettled (a snapshot cache was stale, so the handler must run
  /// and refresh).
  void CountMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t bypass = 0;
    /// Scope-epoch advances observed (each makes that scope's entries
    /// stale; other scopes keep serving).
    std::int64_t invalidations = 0;
    /// Stale entries reclaimed by cap-pressure sweeps.
    std::int64_t stale_evictions = 0;
    std::size_t entries = 0;
  };
  /// Safe to call from any thread; `entries` is a racy snapshot.
  Stats GetStats() const;

  /// The default scope's last observed epoch.
  std::uint64_t epoch() const { return scope_epochs_[0]; }

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Entry {
    /// shared_ptr so an in-flight async send can outlive an overwrite or
    /// eviction (see LookupPinned).
    std::shared_ptr<const std::string> wire;
    /// Scope epoch the bytes were rendered under.
    std::uint64_t epoch = 0;
    /// Owning scope (index into scope_epochs_).
    std::uint32_t scope_id = 0;
  };

  /// Interns `scope` and records `epoch` as its current epoch (counting
  /// an invalidation when it moved).  Allocation-free after the scope's
  /// first occurrence.
  std::uint32_t NoteScope(std::string_view scope, std::uint64_t epoch);

  /// Erases every entry whose recorded epoch trails its scope's current
  /// epoch; returns the number reclaimed.
  std::size_t SweepStale();

  ResponseCacheOptions options_;
  std::unordered_map<std::string, Entry, StringHash, std::equal_to<>>
      entries_;
  /// Scope interning: name -> id, plus each scope's last observed epoch.
  std::unordered_map<std::string, std::uint32_t, StringHash,
                     std::equal_to<>>
      scope_ids_;
  std::vector<std::uint64_t> scope_epochs_;
  /// 1 once the scope's epoch has been observed by any Lookup/Store;
  /// parallel to scope_epochs_.
  std::vector<char> scope_seen_;
  /// Racy-read-safe mirror of entries_.size() for cross-thread Stats().
  std::atomic<std::size_t> entry_count_{0};
  std::string key_buf_;
  std::vector<std::uint32_t> scratch_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> bypass_{0};
  std::atomic<std::int64_t> invalidations_{0};
  std::atomic<std::int64_t> stale_evictions_{0};
};

}  // namespace aqua

#endif  // AQUA_SERVER_RESPONSE_CACHE_H_

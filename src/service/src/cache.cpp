#include "malsched/service/cache.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "malsched/support/contracts.hpp"

namespace malsched::service {

namespace detail {

namespace {

[[nodiscard]] std::uint64_t rotl(std::uint64_t x, int bits) noexcept {
  return (x << bits) | (x >> (64 - bits));
}

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  void round() noexcept {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  }
  void compress(std::uint64_t word) noexcept {
    v3 ^= word;
    round();
    round();
    v0 ^= word;
  }
  [[nodiscard]] std::uint64_t finish() noexcept {
    for (int r = 0; r < 4; ++r) {
      round();
    }
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

}  // namespace

std::array<std::uint64_t, 2> siphash_2_4_128(std::string_view bytes,
                                             std::uint64_t k0,
                                             std::uint64_t k1) noexcept {
  SipState s{k0 ^ 0x736f6d6570736575ULL, k1 ^ 0x646f72616e646f6dULL ^ 0xee,
             k0 ^ 0x6c7967656e657261ULL, k1 ^ 0x7465646279746573ULL};
  const std::size_t size = bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof word);
    s.compress(word);
  }
  std::uint64_t last = static_cast<std::uint64_t>(size) << 56;
  for (std::size_t j = 0; i + j < size; ++j) {
    last |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i + j]))
            << (8 * j);
  }
  s.compress(last);
  s.v2 ^= 0xee;
  const std::uint64_t first = s.finish();
  s.v1 ^= 0xdd;
  return {first, s.finish()};
}

/// One cache entry in one allocation: this header, then the completions.
/// `refs` counts the shard's reference (while resident) plus every live
/// CacheHit; the last release frees the block.
struct CacheNode {
  std::atomic<std::uint32_t> refs{1};
  CacheHit::Value value;
  std::uint64_t key_lo = 0;
  std::uint64_t key_hi = 0;
  CacheNode* prev = nullptr;   ///< towards the most recently used
  CacheNode* next = nullptr;   ///< towards the least recently used
  CacheNode* chain = nullptr;  ///< next node in the same hash chain
  std::chrono::steady_clock::time_point expires{};

  [[nodiscard]] std::size_t weight() const noexcept {
    return 1 + value.completions.size();
  }

  static CacheNode* make(const CachedSolve& solve) {
    const std::size_t n = solve.completions.size();
    void* block = ::operator new(sizeof(CacheNode) + n * sizeof(double));
    auto* node = new (block) CacheNode;
    auto* completions = reinterpret_cast<double*>(node + 1);
    std::copy_n(solve.completions.data(), n, completions);
    node->value = {solve.objective, solve.makespan, {completions, n}};
    return node;
  }

  void retain() noexcept { refs.fetch_add(1, std::memory_order_relaxed); }
  void release() noexcept {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      this->~CacheNode();
      ::operator delete(static_cast<void*>(this));
    }
  }
};

static_assert(sizeof(CacheNode) % alignof(double) == 0,
              "completions follow the header");

}  // namespace detail

using detail::CacheNode;

CacheHit::CacheHit(CacheNode* node) noexcept : node_(node) { node_->retain(); }

CacheHit::CacheHit(const CacheHit& other) noexcept : node_(other.node_) {
  if (node_ != nullptr) {
    node_->retain();
  }
}

CacheHit::CacheHit(CacheHit&& other) noexcept
    : node_(std::exchange(other.node_, nullptr)) {}

CacheHit& CacheHit::operator=(CacheHit other) noexcept {
  std::swap(node_, other.node_);
  return *this;
}

CacheHit::~CacheHit() {
  if (node_ != nullptr) {
    node_->release();
  }
}

const CacheHit::Value& CacheHit::operator*() const noexcept {
  MALSCHED_ASSERT(node_ != nullptr);
  return node_->value;
}

ResultCache::ResultCache(const CacheOptions& options)
    : shards_(options.shards == 0 ? 1 : options.shards),
      per_shard_capacity_((options.capacity + shards_.size() - 1) /
                          shards_.size()),
      capacity_(options.capacity),
      admission_(options.admission) {
  MALSCHED_EXPECTS_MSG(options.capacity > 0,
                       "cache capacity must be positive");
  if (admission_) {
    for (Shard& shard : shards_) {
      shard.lfu = std::make_unique<TinyLfu>(options.admission_sketch);
    }
  }
  if (options.ttl) {
    MALSCHED_EXPECTS_MSG(options.ttl->count() >= 0.0,
                         "cache ttl must be non-negative");
    // Clamp before the cast: a huge TTL ("effectively never expire") must
    // not overflow the integer tick count into a negative duration that
    // would expire everything instantly.  Half of the representable range
    // also keeps `now + ttl` in put() overflow-free.
    const double max_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::duration::max())
            .count() /
        2.0;
    ttl_ = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(
            std::min(options.ttl->count(), max_seconds)));
  }
}

ResultCache::~ResultCache() { clear(); }

ResultCache::Fingerprint ResultCache::fingerprint(
    std::string_view key) noexcept {
  // A fixed key keeps shard placement, and with it every counter,
  // reproducible from run to run.
  const auto digest = detail::siphash_2_4_128(key, 0x6d616c7363686564ULL,
                                              0x63616368652d6b31ULL);
  return {digest[0], digest[1]};
}

ResultCache::Shard& ResultCache::shard_for(const Fingerprint& key) noexcept {
  return shards_[key.lo % shards_.size()];
}

CacheNode* ResultCache::find(const Shard& shard, const Fingerprint& key) {
  if (shard.chains.empty()) {
    return nullptr;
  }
  CacheNode* node = shard.chains[key.hi & (shard.chains.size() - 1)];
  while (node != nullptr && (node->key_lo != key.lo || node->key_hi != key.hi)) {
    node = node->chain;
  }
  return node;
}

void ResultCache::link_front(Shard& shard, CacheNode* node) noexcept {
  node->prev = nullptr;
  node->next = shard.head;
  if (shard.head != nullptr) {
    shard.head->prev = node;
  } else {
    shard.tail = node;
  }
  shard.head = node;
}

void ResultCache::unlink(Shard& shard, CacheNode* node) noexcept {
  (node->prev != nullptr ? node->prev->next : shard.head) = node->next;
  (node->next != nullptr ? node->next->prev : shard.tail) = node->prev;
}

void ResultCache::insert(Shard& shard, CacheNode* node) {
  if (shard.entries >= shard.chains.size()) {
    // Grow to keep chains at most one node long on average.
    std::vector<CacheNode*> chains(std::max<std::size_t>(8, 2 * shard.chains.size()),
                                   nullptr);
    for (CacheNode* head : shard.chains) {
      while (head != nullptr) {
        CacheNode* next = head->chain;
        CacheNode*& slot = chains[head->key_hi & (chains.size() - 1)];
        head->chain = slot;
        slot = head;
        head = next;
      }
    }
    shard.chains = std::move(chains);
  }
  CacheNode*& slot = shard.chains[node->key_hi & (shard.chains.size() - 1)];
  node->chain = slot;
  slot = node;
  link_front(shard, node);
  ++shard.entries;
  shard.weight += node->weight();
}

void ResultCache::remove(Shard& shard, CacheNode* node) noexcept {
  CacheNode** link = &shard.chains[node->key_hi & (shard.chains.size() - 1)];
  while (*link != node) {
    link = &(*link)->chain;
  }
  *link = node->chain;
  unlink(shard, node);
  --shard.entries;
  shard.weight -= node->weight();
  node->release();
}

CacheHit ResultCache::get(std::string_view key) {
  const Fingerprint print = fingerprint(key);
  Shard& shard = shard_for(print);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.lfu) {
    // Every lookup is a popularity vote, hit or miss: the admission contest
    // compares demand for keys, not residency.
    shard.lfu->record(print.lo);
  }
  CacheNode* node = find(shard, print);
  if (node == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (ttl_ && std::chrono::steady_clock::now() >= node->expires) {
    // Lazy TTL eviction: the lookup that finds a stale entry reclaims it
    // and reports a miss, so the caller re-solves and re-fills.
    remove(shard, node);
    expired_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  unlink(shard, node);
  link_front(shard, node);
  return CacheHit(node);
}

void ResultCache::put(std::string_view key, const CachedSolve& value) {
  const Fingerprint print = fingerprint(key);
  CacheNode* node = CacheNode::make(value);
  node->key_lo = print.lo;
  node->key_hi = print.hi;
  if (ttl_) {
    node->expires = std::chrono::steady_clock::now() + *ttl_;
  }
  const std::size_t weight = node->weight();
  Shard& shard = shard_for(print);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (CacheNode* resident = find(shard, print)) {
    // Refresh: the new node takes the resident's place, outside the
    // admission contest.
    remove(shard, resident);
  } else if (shard.lfu) {
    // The insert itself is an occurrence of the key (a rejected key thus
    // gains ground on every re-arrival and is eventually admitted).
    shard.lfu->record(print.lo);
    // Admission contest: an over-budget insert must out-score, or tie,
    // every LRU victim it displaces.  Losing drops the insert — the
    // shard's resident set was judged more valuable than the newcomer.
    while (shard.weight + weight > per_shard_capacity_ &&
           shard.tail != nullptr) {
      if (!shard.lfu->admit(print.lo, shard.tail->key_lo)) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        node->release();
        return;
      }
      remove(shard, shard.tail);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    admitted_.fetch_add(1, std::memory_order_relaxed);
  }
  insert(shard, node);
  // Evict LRU entries until back under the weight budget.  The newest entry
  // is never evicted, even when it alone exceeds the shard budget: a 1-entry
  // memo beats not caching an oversized instance at all.
  while (shard.weight > per_shard_capacity_ && shard.tail != node) {
    remove(shard, shard.tail);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

CacheStats ResultCache::stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.capacity = capacity_;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    stats.entries += shard.entries;
    stats.weight += shard.weight;
  }
  return stats;
}

void ResultCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    while (shard.tail != nullptr) {
      remove(shard, shard.tail);
    }
    shard.chains.clear();
  }
}

}  // namespace malsched::service

//===- support/OnceMap.h - thread-safe compute-once map ---------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one compute-once primitive the reuse layers share. The first
/// caller to acquire a key becomes its *owner* and computes the value;
/// every later acquirer of that key blocks until the owner publishes,
/// then reads the published value. Work keyed this way therefore runs
/// once per distinct key however the scheduler interleaves its callers.
/// sim/ProfileCache is this map under another name (one simulation per
/// execution key), and the campaign engine's memos (one build per
/// program and per distinct placement of it, one branch & bound chain per
/// distinct ILP and knob-point list) are built on it too. The map counts
/// nothing: what the owners compute is counted in the metrics registry
/// where the work happens.
///
/// The owner's duty is to publish exactly once, on every path out —
/// including early returns and exceptions — or every later acquirer
/// deadlocks. Claim is the RAII form of that duty: it publishes V{} when
/// it goes out of scope without an explicit publish().
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SUPPORT_ONCEMAP_H
#define RAMLOC_SUPPORT_ONCEMAP_H

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace ramloc {

template <typename K, typename V> class OnceMap {
public:
  /// Looks \p Key up. If another caller owns the key's computation,
  /// blocks until it publishes, then returns the published value. If the
  /// key is untouched, returns V{} with \p Owner set: the caller must
  /// publish() exactly once.
  V acquire(const K &Key, bool &Owner) {
    Owner = false;
    std::shared_ptr<Entry> E;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      std::shared_ptr<Entry> &Slot = Map[Key];
      if (!Slot) {
        Slot = std::make_shared<Entry>();
        Owner = true;
        return V{};
      }
      E = Slot;
    }
    std::unique_lock<std::mutex> Lock(E->M);
    E->CV.wait(Lock, [&E] { return E->Done; });
    return E->Value;
  }

  /// Publishes the owner's result for \p Key and wakes all waiters.
  void publish(const K &Key, V Value) {
    std::shared_ptr<Entry> E;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      std::shared_ptr<Entry> &Slot = Map[Key];
      if (!Slot)
        Slot = std::make_shared<Entry>();
      E = Slot;
    }
    {
      std::lock_guard<std::mutex> Lock(E->M);
      E->Value = std::move(Value);
      E->Done = true;
    }
    E->CV.notify_all();
  }

  /// Non-blocking insert of an already-computed value (a disk preload).
  /// Keys already present are left untouched: the first publisher wins,
  /// and an in-flight computation is never clobbered.
  void preload(const K &Key, V Value) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::shared_ptr<Entry> &Slot = Map[Key];
    if (Slot)
      return;
    Slot = std::make_shared<Entry>();
    Slot->Value = std::move(Value);
    Slot->Done = true;
  }

  /// Drops \p Key's entry; a copy of its value a caller holds stays
  /// valid. Only for a published key that no caller acquires again: an
  /// owner publishing after the erase would never wake its waiters.
  void erase(const K &Key) {
    std::lock_guard<std::mutex> Lock(Mu);
    Map.erase(Key);
  }

  /// Calls \p Fn(Key, Value) for every published entry, in map order.
  /// Never blocks on an in-flight computation: an entry still being
  /// computed is skipped (it shows up in a later walk).
  template <typename F> void forEachPublished(F &&Fn) const {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &[Key, E] : Map) {
      std::lock_guard<std::mutex> ELock(E->M);
      if (E->Done)
        Fn(Key, E->Value);
    }
  }

  /// The owner's publish duty as a scope guard. acquire() through
  /// claim() and the returned Claim is engaged exactly when the caller
  /// owns the key; an engaged Claim publishes V{} on destruction unless
  /// publish() ran first.
  class Claim {
  public:
    Claim() = default;
    Claim(Claim &&O) noexcept
        : Map(std::exchange(O.Map, nullptr)), Key(std::move(O.Key)) {}
    Claim &operator=(Claim &&) = delete;
    Claim(const Claim &) = delete;
    ~Claim() {
      if (Map)
        Map->publish(Key, V{});
    }

    /// True when this caller owns the key and has not published yet.
    explicit operator bool() const { return Map != nullptr; }

    void publish(V Value) {
      if (Map)
        std::exchange(Map, nullptr)->publish(Key, std::move(Value));
    }

  private:
    friend class OnceMap;
    Claim(OnceMap &M, const K &Key) : Map(&M), Key(Key) {}
    OnceMap *Map = nullptr;
    K Key{};
  };

  /// acquire() with the owner's duty attached: returns an engaged Claim
  /// when the caller owns \p Key; otherwise blocks until the owner
  /// publishes, stores the value in \p Out and returns an empty Claim.
  Claim claim(const K &Key, V &Out) {
    bool Owner = false;
    Out = acquire(Key, Owner);
    return Owner ? Claim(*this, Key) : Claim();
  }

private:
  struct Entry {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    V Value{};
  };

  mutable std::mutex Mu;
  std::unordered_map<K, std::shared_ptr<Entry>> Map;
};

} // namespace ramloc

#endif // RAMLOC_SUPPORT_ONCEMAP_H

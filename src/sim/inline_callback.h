// Small-buffer, move-only replacement for std::function<void()> on the
// event hot path.
//
// Every simulation event used to carry a std::function whose capture —
// anything past libstdc++'s 16-byte inline buffer — was heap-allocated on
// push and freed on fire/cancel. At millions of events per run the
// allocator became a first-order cost (see README "Performance").
// InlineCallback stores the callable in a 48-byte in-object buffer (the
// whole object is one 64-byte cache line with the vtable pointer) and
// refuses, at compile time, captures that would not fit: there is NO heap
// fallback, so a capture that compiles is guaranteed allocation-free.
//
// The SBO contract (what a scheduling capture may hold):
//  * up to kCapacity (48) bytes of captured state, max_align_t-aligned;
//  * the callable must be nothrow-move-constructible (lambdas capturing
//    pointers, PODs, shared_ptr/PacketRef, std::function, or SmallVector
//    all qualify);
//  * move-only is fine — InlineCallback itself never copies.
// Oversized captures fail the static_assert below; restructure them to
// capture a pointer/handle (e.g. net::PacketRef instead of a Packet).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace essat::sim {

class InlineCallback {
 public:
  // 48 bytes covers the widest capture in the tree (query_agent's
  // [this, &qs, k, contributions, update]) and, with the vtable pointer,
  // makes sizeof(InlineCallback) exactly one cache line — the event
  // queue's slot table stays one line per callback.
  static constexpr std::size_t kCapacity = 48;

  InlineCallback() = default;
  InlineCallback(std::nullptr_t) {}  // NOLINT: implicit, mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT: implicit, mirrors std::function
    construct_(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from_(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from_(other);
    }
    return *this;
  }
  InlineCallback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineCallback& cb, std::nullptr_t) {
    return !cb;
  }
  friend bool operator!=(const InlineCallback& cb, std::nullptr_t) {
    return static_cast<bool>(cb);
  }

  // Precondition: non-null. The callable stays alive during the call, so
  // it may destroy/replace this InlineCallback's owner (the usual
  // fire-then-rearm pattern moves the callback out first).
  void operator()() { ops_->invoke(buf_); }

  // Replaces the held callable with `f`, constructed directly in this
  // object's buffer (no temporary InlineCallback to relocate from). An
  // InlineCallback rvalue or nullptr is assigned as usual.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, InlineCallback> ||
                  std::is_same_v<Fn, std::nullptr_t>) {
      *this = std::forward<F>(f);
    } else {
      reset();
      construct_(std::forward<F>(f));
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct dst from src, then destroy src. Null for trivially
    // copyable callables (the common [this]/POD captures): relocation is a
    // straight buffer copy and destruction is a no-op, so the hot path
    // skips the indirect calls entirely.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);  // null iff trivially destructible
  };

  // Trivially copyable implies trivially destructible, so the two nulls
  // always travel together.
  template <typename Fn>
  static constexpr Ops ops_for_{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) {
              ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
              static_cast<Fn*>(src)->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename F>
  void construct_(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture too large for InlineCallback's inline buffer — "
                  "capture a pointer/handle instead (e.g. net::PacketRef, "
                  "not a Packet) or raise kCapacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callables stored in events must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &ops_for_<Fn>;
  }

  void move_from_(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, other.buf_);
      } else {
        // Fixed-size copy: cheaper than an indirect call and lets the
        // compiler vectorize. Trailing garbage past the callable is inert.
        __builtin_memcpy(buf_, other.buf_, kCapacity);
      }
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kCapacity];
};

}  // namespace essat::sim

// Cooperative cancellation and deadlines for long-running compiles.
//
// A compile server cannot afford a worker that never comes back: one
// pathological job must time out, release its thread, and report what
// happened — as data, not as a crash. The contract here:
//
//   * CancelToken — a cheap, thread-safe "stop now" flag with an optional
//     deadline and an optional parent (a batch-wide token chains above the
//     per-job deadline token). Polling costs one relaxed atomic load plus,
//     when a deadline is armed, one steady_clock read.
//
//   * CancelScope — installs a token as the *ambient* token of the current
//     thread (restores the previous one on scope exit). The long loops deep
//     in the engines (DRC seams, extraction window fixpoints, sim eval
//     passes) poll the ambient token via check_cancel() without every
//     signature between the pipeline and the loop having to thread a
//     parameter through. The ambient token is a thread_local, so a worker
//     thread does not inherit it: code that polls on a worker must install
//     the token there itself (core::compile does, which covers every
//     compile_many job).
//
//   * check_cancel(where) — polls and throws Cancelled. The pipeline
//     catches Cancelled at the stage boundary and turns it into a
//     Severity::Cancelled diagnostic; nothing else should swallow it
//     (catch it before `catch (const std::exception&)` and rethrow —
//     graceful-degradation handlers in particular must *not* retry a
//     cancelled computation on a slower path).
//
// This header is deliberately self-contained (no other silc headers) so
// every layer — drc, extract, sim — can poll cancellation without
// depending on core.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>

namespace silc::core {

/// Thrown by check_cancel() when the ambient token is cancelled. Caught at
/// the pipeline stage boundary and rendered as a Severity::Cancelled diag;
/// everything between the loop and the boundary must let it pass through.
class Cancelled : public std::exception {
 public:
  explicit Cancelled(std::string what) : what_(std::move(what)) {}
  [[nodiscard]] const char* what() const noexcept override {
    return what_.c_str();
  }

 private:
  std::string what_;
};

/// A manual-cancel flag + optional deadline + optional parent token.
/// cancel() and cancelled() are thread-safe; set_deadline_after() and
/// set_parent() are setup calls — make them before the token is shared.
class CancelToken {
 public:
  /// Request cancellation (idempotent, thread-safe).
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arm a deadline `ms` from now (<= 0 disarms).
  void set_deadline_after(int ms) noexcept {
    deadline_ns_.store(
        ms > 0 ? now_ns() + static_cast<std::int64_t>(ms) * 1'000'000 : 0,
        std::memory_order_relaxed);
  }

  /// Chain a token that cancels this one too (e.g. a batch-wide kill
  /// switch above a per-job deadline). The parent must outlive this token.
  void set_parent(const CancelToken* parent) noexcept { parent_ = parent; }

  [[nodiscard]] bool cancelled() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d != 0 && now_ns() >= d) return true;
    return parent_ != nullptr && parent_->cancelled();
  }

  /// Why cancelled() is true ("cancelled" / "deadline exceeded"); the
  /// manual flag wins when both hold.
  [[nodiscard]] const char* reason() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return "cancelled";
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d != 0 && now_ns() >= d) return "deadline exceeded";
    if (parent_ != nullptr && parent_->cancelled()) return parent_->reason();
    return "not cancelled";
  }

 private:
  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{0};  // steady clock; 0 = none
  const CancelToken* parent_ = nullptr;
};

namespace detail {
inline const CancelToken*& ambient_cancel() noexcept {
  thread_local const CancelToken* token = nullptr;
  return token;
}
}  // namespace detail

/// The ambient token of the calling thread (null when none installed).
[[nodiscard]] inline const CancelToken* current_cancel() noexcept {
  return detail::ambient_cancel();
}

/// Install `token` as the calling thread's ambient token for this scope
/// (null is allowed and means "no cancellation here"). Nests.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) noexcept
      : prev_(detail::ambient_cancel()) {
    detail::ambient_cancel() = token;
  }
  ~CancelScope() { detail::ambient_cancel() = prev_; }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* prev_;
};

/// Non-throwing poll of the ambient token — what crew workers use to stop
/// claiming work (a worker thread must never throw; the spawner checks and
/// throws after the join).
[[nodiscard]] inline bool cancel_requested() noexcept {
  const CancelToken* t = current_cancel();
  return t != nullptr && t->cancelled();
}

/// Throwing poll: the long-loop checkpoint. `where` names the loop for the
/// diagnostic ("drc.hier.cell", "extract.hier.window", ...).
inline void check_cancel(const char* where) {
  const CancelToken* t = current_cancel();
  if (t != nullptr && t->cancelled()) {
    throw Cancelled(std::string(t->reason()) + " at " + where);
  }
}

}  // namespace silc::core

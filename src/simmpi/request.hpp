// Nonblocking communication requests.
//
// Sends in this runtime are always buffered, so an isend completes
// immediately; an irecv defers its matching to wait()/test(). This is a
// legal MPI progress model (completion may happen entirely inside the
// wait call) and is exactly what the mini-apps need to overlap their halo
// exchange posts.
#pragma once

#include <cassert>
#include <cstring>
#include <exception>
#include <optional>
#include <span>

#include "simmpi/errors.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/transport_traits.hpp"

namespace resilience::simmpi {

class Comm;

/// Handle for an outstanding nonblocking operation. Move-only; must be
/// completed with wait() (or via Comm::wait_all) before destruction —
/// destroying an incomplete receive request is a usage bug and terminates
/// in debug builds.
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept { *this = std::move(other); }
  Request& operator=(Request&& other) noexcept {
    mailbox_ = other.mailbox_;
    source_ = other.source_;
    tag_ = other.tag_;
    bytes_ = other.bytes_;
    deliver_ = other.deliver_;
    pending_ = other.pending_;
    other.pending_ = false;
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  ~Request() {
    // An abandoned pending receive would silently drop a message — unless
    // the rank is being torn down (abort, deadlock, injected failure), in
    // which case the whole job's messages are discarded anyway.
    assert((!pending_ || std::uncaught_exceptions() > 0) &&
           "Request destroyed before wait()");
  }

  /// Block until the operation completes (no-op for completed requests
  /// and send requests). Returns the source rank for receives, -1 else.
  int wait() {
    if (!pending_) return -1;
    Envelope env = mailbox_->pop_matching(source_, tag_);
    const int actual_source = env.source;
    complete(env);
    mailbox_->recycle(std::move(env));
    return actual_source;
  }

  /// True if the operation can complete without blocking; completes it if
  /// so (MPI_Test semantics).
  bool test() {
    if (!pending_) return true;
    if (!mailbox_->probe(source_, tag_)) {
      // Polling loops (`while (!req.test()) {}`) would starve the sender
      // under the cooperative core; let the peers run before reporting no.
      FiberScheduler::yield_current();
      return false;
    }
    wait();
    return true;
  }

  [[nodiscard]] bool pending() const noexcept { return pending_; }

 private:
  friend class Comm;

  /// Construct a pending receive (used by Comm::irecv).
  Request(Mailbox* mailbox, int source, int tag, std::span<std::byte> bytes,
          void (*deliver)(std::span<std::byte>))
      : mailbox_(mailbox),
        source_(source),
        tag_(tag),
        bytes_(bytes),
        deliver_(deliver),
        pending_(true) {}

  void complete(const Envelope& env) {
    if (env.bytes.size() != bytes_.size()) {
      pending_ = false;
      throw UsageError("irecv: message size does not match buffer");
    }
    if (!bytes_.empty()) {
      std::memcpy(bytes_.data(), env.bytes.data(), bytes_.size());
    }
    pending_ = false;
    if (deliver_ != nullptr) deliver_(bytes_);
  }

  Mailbox* mailbox_ = nullptr;
  int source_ = 0;
  int tag_ = 0;
  std::span<std::byte> bytes_{};
  void (*deliver_)(std::span<std::byte>) = nullptr;
  bool pending_ = false;
};

}  // namespace resilience::simmpi

// One connected client: a thread that speaks the frame protocol and owns
// that client's in-flight executions.
//
// The session loop sleeps in poll() on two fds and no timer: the socket
// (requests: read -> frame reassembly -> dispatch) and its own wake pipe.
// Every execution it submits carries a completion hook
// (api::SubmitOptions::on_complete) that writes the wake pipe — unless it
// fires on the session thread itself (a replay that ran inline inside
// handle_submit), whose RESULT the post-dispatch sweep delivers — and
// Server::stop() writes it too. Each wakeup sweeps the in-flight table for
// executions that reached a terminal state and pushes a RESULT frame for
// each, so a RESULT leaves as soon as its execution ends. All Execution
// handles live in this table, so the lifetime story is simple:
// whatever ends the loop — orderly client close, abrupt disconnect,
// protocol error, or server shutdown — the epilogue either drains (waits
// and, when the socket still works, delivers) or cancels-then-joins every
// in-flight execution before the thread exits. Cancel-on-disconnect falls
// out of that epilogue: a vanished client's executions get
// Execution::cancel() and nothing else in the server is touched.
//
// Hook lifetime: a hook fires after its execution's `done` is published,
// so the epilogue can observe every execution done while a worker is
// still inside a hook that touches this session. The session therefore
// counts armed hooks; the decrement is the hook's last access to the
// session, and the epilogue waits for the count to reach zero before the
// thread reports finished (after which the Server may destroy the
// session and close its wake pipe).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>

#include "api/runtime.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace nabbitc::net {

class Session {
 public:
  Session(Server& server, Fd fd, std::uint64_t id) noexcept;
  ~Session();  // join()

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Opens the wake pipe and starts the session thread. False (nothing
  /// started) when the pipe cannot be opened.
  bool start();
  void join();
  /// Wakes the session loop (Server::stop() uses it to end the poll).
  void wake() noexcept { wake_.notify(); }
  bool finished() const noexcept {
    return finished_.load(std::memory_order_acquire);
  }

 private:
  /// One accepted SUBMIT. The name is copied here because
  /// SubmitOptions::name is a borrowed pointer — the execution must not
  /// outlive it, and an unordered_map's nodes give it a stable address.
  struct InFlight {
    api::Execution exec;
    std::string name;
    std::uint64_t payload = 0;
    /// Slow-request stage stamps (obs/slow_ring.h): when the SUBMIT frame
    /// entered dispatch, when admission control let it through, and when
    /// it was submitted to the runtime. 0 when metrics are disabled.
    std::uint64_t t_decode_ns = 0;
    std::uint64_t t_admit_ns = 0;
    std::uint64_t t_submit_ns = 0;
    const plan::GraphPlan* plan = nullptr;
  };

  void run();
  /// Reads everything the socket has; false on EOF / hard error.
  bool pump_socket();
  /// Handles one frame. False = the connection is done (protocol error
  /// already answered).
  bool dispatch(const FrameAssembler::Frame& f);
  bool handle_register(std::span<const std::uint8_t> body);
  bool handle_submit(std::span<const std::uint8_t> body);
  bool handle_submit_batch(std::span<const std::uint8_t> body);
  bool handle_status_req(std::span<const std::uint8_t> body);
  bool handle_cancel(std::span<const std::uint8_t> body);
  bool handle_stats();
  bool handle_metrics();
  bool handle_slow();

  /// Pushes RESULT for every terminal execution and retires its record.
  void sweep_completed(bool deliver);
  /// Builds + (optionally) sends the RESULT frame for one finished record,
  /// updates server counters, and releases its global-admission slot.
  void finish_record(std::uint64_t exec_id, InFlight& rec, bool deliver);
  void cancel_all() noexcept;
  /// Blocks until the in-flight table is empty, retiring records as their
  /// executions finish.
  void drain_all(bool deliver);

  /// Counts `n` armed completion hooks and returns the hook to put in
  /// each of their SubmitOptions.
  api::CompletionHook arm_hooks(std::uint32_t n) noexcept;
  /// The completion hook: wakes the loop (from any thread but the
  /// session's own), then disarms (last access).
  static void on_exec_complete(void* ctx) noexcept;

  bool send(FrameType type, const WireWriter& body) noexcept;
  void send_protocol_error(ErrCode code, const std::string& message) noexcept;

  Server& server_;
  Fd fd_;
  std::uint64_t id_;
  std::thread thread_;
  std::atomic<bool> finished_{false};
  WakePipe wake_;
  /// Completion hooks armed and not yet returned (see "Hook lifetime").
  std::atomic<std::uint32_t> hooks_armed_{0};
  FrameAssembler assembler_;
  std::unordered_map<std::uint64_t, InFlight> inflight_;
  /// When the frame currently being dispatched entered dispatch (the
  /// "decode" stage stamp for any SUBMIT it carries). 0 when metrics are
  /// disabled.
  std::uint64_t frame_t0_ns_ = 0;
  /// Cleared on the first failed send: the peer is gone, stop writing.
  bool alive_ = true;
};

}  // namespace nabbitc::net

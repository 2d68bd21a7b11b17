// The load generator: one thread, one non-blocking loopback connection per
// wire session, epoll plus a due-time timerfd. It speaks only the public
// gateway/wire.h frame codecs, pipelines SubmitBatch and SessionSnapshot
// frames, and times every touch on its own clock from the moment the
// touch was due (open loop) or its batch was sent (closed loop) until the
// first SessionSnapshot that shows the touch's reference answer.

#ifndef TOUCHBENCH_LOADGEN_H_
#define TOUCHBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "gateway/wire.h"
#include "obs/histogram.h"

namespace touchbench {

/// One span of the traced run (see Tracer in main.cc for the names).
struct Span {
  std::uint8_t name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the parent span in the same vector, -1 for a root.
  std::int64_t parent = -1;
  /// Per-touch id: session index << 32 | touch index.
  std::int64_t touch = 0;
};

enum SpanName : std::uint8_t {
  kSpanTouch = 0,      // due -> answer visible
  kSpanSendDelay = 1,  // due -> send
  kSpanSubmit = 2,     // send -> SubmitBatch ack
  kSpanAnswerWait = 3, // ack -> answer visible
  kSpanPoll = 4,       // one SessionSnapshot round trip
};
const char* SpanNameOf(std::uint8_t name);

/// Length of the windows a phase is cut into for its medians.
inline constexpr std::int64_t kWindowNs = 2'000'000'000;

/// What one measured phase saw on the client side.
struct PhaseResult {
  /// Steady-clock nanoseconds; every client-side time below is too.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool traced = false;
  /// Touches due (open loop) or sent (closed loop) in the phase.
  std::int64_t attempted = 0;
  std::int64_t answered = 0;
  std::int64_t in_frame = 0;
  /// Wire operations that failed (error responses, undecodable frames).
  std::int64_t errors = 0;
  /// Touches the server refused at admission, touches it shed as
  /// hopelessly late (dropped quanta), and touches left unanswered for 2 s.
  /// Each is a miss.
  std::int64_t rejected = 0;
  std::int64_t dropped = 0;
  std::int64_t timeouts = 0;
  /// Touch latency (due to answer visible), send lag (due to send) and
  /// the SubmitBatch and SessionSnapshot round trips, in ns.
  dbtouch::obs::Histogram latency;
  dbtouch::obs::Histogram send_lag;
  dbtouch::obs::Histogram submit_rtt;
  dbtouch::obs::Histogram snapshot_rtt;
  /// The phase cut into windows of about kWindowNs by the touches' due
  /// times: each window's answered-touch latencies. Medians over windows
  /// keep a burst of host interference in one window out of the result.
  std::vector<std::unique_ptr<dbtouch::obs::Histogram>> windows;
  void MakeWindows();
  dbtouch::obs::Histogram& Window(std::int64_t due_ns);
  std::int64_t polls = 0;
  /// Kernel work seen through the sessions' snapshots (increments of
  /// their rows_scanned and entries_returned counters).
  std::int64_t rows_scanned = 0;
  std::int64_t entries_returned = 0;
  std::int64_t rss_peak_bytes = 0;
  LayerStats begin;
  LayerStats end;
  std::vector<Span> spans;
};

/// Reads every open session's server-side dropped_quanta count (admission
/// rejections plus late sheds), keyed by session id.
using DropProbe = std::function<std::map<api::SessionId, std::int64_t>()>;

class Generator {
 public:
  /// `drop_floor_ns`: the server sheds a quantum only when it is popped
  /// later than its deadline plus the drop slack, so a touch answered
  /// sooner than this after it was due cannot have been shed. Slower
  /// answers are held until `probe` has been read after them.
  Generator(const WorkloadSpec& spec, std::vector<SessionPlan>* plans,
            std::uint16_t port, std::int64_t drop_floor_ns, DropProbe probe);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Connects every session and opens its session, object and action.
  dbtouch::Status Open();

  /// Sends each session's first gesture unpaced and waits until all of its
  /// touches are answered.
  dbtouch::Status Warmup();

  /// Runs the phases back to back on one continuous schedule. `stats` is
  /// read at every phase boundary.
  std::vector<PhaseResult> Run(
      const std::vector<std::int64_t>& phase_lengths_ns,
      const std::vector<bool>& traced,
      const std::function<LayerStats()>& stats);

  /// Checks every session against the server's dropped_quanta counts
  /// (`dropped`): each touch sent was executed or dropped. A session with
  /// no dropped touch must also show the reference result count and a
  /// result tail equal to the reference; `shed_possible[s]` relaxes its
  /// summary values to counts and rows. A session that lost touches has
  /// no reference past the first loss and is checked by counts only.
  struct CheckResult {
    bool ok = true;
    std::int64_t results_compared = 0;
    std::int64_t values_unchecked = 0;
    std::int64_t sessions_counts_only = 0;
    std::string first_mismatch;
  };
  CheckResult FinalCheck(const std::vector<bool>& shed_possible,
                         const std::map<api::SessionId, std::int64_t>& dropped);

  /// Closes every session over the wire, then every connection.
  dbtouch::Status CloseAll();

  api::SessionId session_id(std::size_t s) const { return sessions_[s].sid; }
  /// Closed loop: sessions closed and reopened because their client's
  /// plan was used up.
  std::int64_t reopens() const { return reopens_; }
  /// Wire frames captured during the run, for the codec replay.
  const std::vector<api::SubmitBatchReq>& sample_submits() const {
    return sample_submits_;
  }
  const std::vector<std::string>& sample_snapshot_payloads() const {
    return sample_snapshots_;
  }

 private:
  struct Pending {
    dbtouch::gateway::MessageType type;
    std::uint32_t request_id = 0;
    std::int64_t sent_ns = 0;
    /// SubmitBatch: the batch's touch index range [touch, touch + count).
    std::size_t touch = 0;
    std::size_t count = 0;
  };
  struct TouchTimes {
    std::int64_t due = 0;
    std::int64_t sent = 0;
    std::int64_t acked = 0;
    std::int32_t phase = -1;
  };
  /// Why a touch was resolved.
  enum class Outcome { kAnswered, kRejected, kDropped, kTimedOut };
  /// A session snapshot's kernel counters and when it arrived.
  struct View {
    std::int64_t ns = 0;
    std::int64_t touch_events = 0;
    std::int64_t result_count = 0;
  };
  struct Session {
    int fd = -1;
    std::string in;
    std::string out;
    std::size_t out_off = 0;
    bool want_write = false;
    bool broken = false;
    std::deque<Pending> inflight;
    std::uint32_t next_request = 1;
    api::SessionId sid = 0;
    api::ObjectId object = 0;
    SessionPlan* plan = nullptr;
    /// Closed loop: this session's gesture maker and its current gesture.
    std::optional<GestureSource> source;
    std::vector<api::WireTouchEvent> gesture;
    std::size_t next_send = 0;
    std::size_t answered = 0;
    /// Kernel counters of the session's last snapshot.
    std::int64_t rows_scanned = 0;
    std::int64_t entries_returned = 0;
    /// The last snapshot view applied, and the newer ones (each changing
    /// the counters) still waiting for a drop probe, oldest first: each
    /// touch is answered at the first view that shows it.
    View view;
    std::deque<View> views;
    /// Per touch: kRejected or kDropped once the server is known to have
    /// lost it (from the SubmitBatch ack, or attributed after a drop
    /// probe), kAnswered otherwise.
    std::vector<Outcome> loss;
    /// Resolved touches the server lost; past the first, the session has
    /// no reference answers.
    std::int64_t lost_resolved = 0;
    /// Touches refused at admission (acks) and drops attributed so far.
    std::int64_t rejected_acked = 0;
    std::int64_t drops_attributed = 0;
    /// Time of the last drop probe; slow answers wait for a later one.
    std::int64_t probed_ns = 0;
    bool needs_probe = false;
    /// Closed loop: the session is being closed and reopened.
    bool reopening = false;
    bool poll_inflight = false;
    std::int64_t next_poll = 0;
    /// Open loop: per touch. Closed loop: one entry shared by the touches
    /// of the outstanding gesture.
    std::vector<TouchTimes> times;
    /// Poll round trips since the oldest outstanding touch was sent (for
    /// the traced run's per-touch poll spans).
    std::vector<std::pair<std::int64_t, std::int64_t>> polls;
    /// Body of the last setup/check response.
    std::string last_body;
    bool last_ok = false;
    std::string last_error;
  };

  dbtouch::Status Connect(Session& s);
  template <typename Req>
  void Send(Session& s, dbtouch::gateway::MessageType type, const Req& req,
            std::size_t touch, std::int64_t now);
  void Flush(Session& s);
  void SetWantWrite(Session& s, bool want);
  void OnReadable(Session& s, std::int64_t now);
  void OnResponse(Session& s, const dbtouch::gateway::FrameHeader& header,
                  std::string_view payload, std::int64_t now);
  /// Blocking request/response used only outside the measured phases.
  template <typename Req, typename Resp>
  dbtouch::Status RoundTrip(Session& s, dbtouch::gateway::MessageType type,
                            const Req& req, Resp* resp);

  TouchTimes& TimesOf(Session& s, std::size_t k) {
    return spec_.open_loop ? s.times[k] : s.times[0];
  }
  /// Sends `events` as one SubmitBatch carrying touches [first, first + n).
  void SendTouches(Session& s, const api::WireTouchEvent* events,
                   std::size_t n, std::size_t first, bool paced,
                   std::int64_t due, std::int64_t now);
  /// Closed loop: makes and sends the session's next gesture; returns the
  /// touches sent. When the client's plan is used up, it starts a reopen
  /// instead and returns 0.
  std::size_t SendNextGesture(Session& s, std::int32_t phase,
                              std::int64_t now);
  /// Closed loop: the client's plan is used up. Its session is closed and
  /// a new one replays the plan from the start, so memory and reference
  /// stay bounded. The requests are pipelined like every other frame and
  /// OnReopenResponse advances the reopen, so the other sessions' answers
  /// keep being read.
  void StartReopen(Session& s, std::int64_t now);
  void OnReopenResponse(Session& s, dbtouch::gateway::MessageType type,
                        bool ok, std::string_view body, std::int64_t now);
  /// Opens the session, its object and its action (blocking round trips).
  dbtouch::Status OpenSession(Session& s);
  void SendPoll(Session& s, std::int64_t now);
  /// Resolves the session's touches in order as far as its snapshot views
  /// and the known losses allow.
  void Advance(Session& s);
  /// Resolves the touches view `v` shows answered; false when one of them
  /// must wait for a drop probe read after `v`.
  bool Apply(Session& s, const View& v);
  /// Reads the drop probe and attributes each session's unexplained drops
  /// to its oldest outstanding touches that are old enough to be shed.
  void ProbeDrops(std::int64_t now);
  /// Reads the drop probe when a session waits for it or has a touch
  /// outstanding past the drop floor, at most every 10 ms; returns when
  /// it wants to run next (kNever-like INT64_MAX when nothing waits).
  std::int64_t ProbeIfDue(std::int64_t now);
  void Resolve(Session& s, std::size_t k, std::int64_t now, Outcome outcome);
  void ArmTimer(std::int64_t at_ns);
  void WaitEvents(bool block);

  const WorkloadSpec& spec_;
  std::uint16_t port_;
  std::int64_t drop_floor_ns_;
  DropProbe probe_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Session> sessions_;
  /// Results of the phases of the current Run (null outside Run).
  std::vector<PhaseResult>* phases_ = nullptr;
  /// Requests sent and not yet answered, over all sessions.
  std::int64_t inflight_ = 0;
  std::int64_t warmup_errors_ = 0;
  std::int64_t reopens_ = 0;
  std::int64_t next_probe_ = 0;
  std::vector<api::SubmitBatchReq> sample_submits_;
  std::vector<std::string> sample_snapshots_;
};

}  // namespace touchbench

#endif  // TOUCHBENCH_LOADGEN_H_

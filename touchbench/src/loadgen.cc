#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <queue>

namespace touchbench {

namespace wire = dbtouch::gateway;
using dbtouch::Status;
using wire::MessageType;

namespace {

constexpr std::int64_t kNever = INT64_MAX;
/// A touch not answered this long after its send counts as timed out.
constexpr std::int64_t kAnswerTimeoutNs = 2'000'000'000;
/// Outstanding answers get this long after the last phase ends.
constexpr std::int64_t kDrainNs = 3'000'000'000;
/// The generator spins instead of sleeping when its next deadline is this
/// close.
constexpr std::int64_t kSpinNs = 2'000'000;
/// Shortest gap between two reads of the drop probe.
constexpr std::int64_t kProbePeriodNs = 10'000'000;
/// Resident-set sampling period during the measured phases.
constexpr std::int64_t kRssPeriodNs = 20'000'000;
/// Spans kept from the traced phase (the first touches it resolves).
constexpr std::size_t kMaxSpans = 50'000;
/// Codec replay inputs captured from the run.
constexpr std::size_t kSampleFrames = 512;
constexpr std::uint64_t kTimerTag = UINT64_MAX;

std::int64_t ResidentBytes() {
  static const long page = sysconf(_SC_PAGESIZE);
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<std::int64_t>(resident) * page : 0;
}

}  // namespace

void PhaseResult::MakeWindows() {
  const std::int64_t length = end_ns - start_ns;
  const std::int64_t n =
      std::max<std::int64_t>(1, (length + kWindowNs / 2) / kWindowNs);
  windows.clear();
  for (std::int64_t i = 0; i < n; ++i) {
    windows.push_back(std::make_unique<dbtouch::obs::Histogram>());
  }
}

dbtouch::obs::Histogram& PhaseResult::Window(std::int64_t due_ns) {
  const auto n = static_cast<std::int64_t>(windows.size());
  const std::int64_t i = (due_ns - start_ns) * n / (end_ns - start_ns);
  return *windows[static_cast<std::size_t>(
      std::clamp<std::int64_t>(i, 0, n - 1))];
}

const char* SpanNameOf(std::uint8_t name) {
  switch (name) {
    case kSpanTouch:
      return "touch";
    case kSpanSendDelay:
      return "gen.send_delay";
    case kSpanSubmit:
      return "wire.submit";
    case kSpanAnswerWait:
      return "wire.answer_wait";
    case kSpanPoll:
      return "wire.poll";
  }
  return "unknown";
}

Generator::Generator(const WorkloadSpec& spec, std::vector<SessionPlan>* plans,
                     std::uint16_t port, std::int64_t drop_floor_ns,
                     DropProbe probe)
    : spec_(spec),
      port_(port),
      drop_floor_ns_(drop_floor_ns),
      probe_(std::move(probe)) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  sessions_.resize(plans->size());
  for (std::size_t i = 0; i < plans->size(); ++i) {
    Session& s = sessions_[i];
    s.plan = &(*plans)[i];
    s.loss.assign(s.plan->ref_count.size(), Outcome::kAnswered);
    if (spec.open_loop) {
      s.times.resize(s.plan->events.size());
    } else {
      s.times.resize(1);
      s.source = s.plan->source;
    }
  }
}

Generator::~Generator() {
  for (Session& s : sessions_) {
    if (s.fd >= 0) close(s.fd);
  }
  if (timer_fd_ >= 0) close(timer_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status Generator::Connect(Session& s) {
  s.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (s.fd < 0) return Status::Internal("socket failed");
  const int one = 1;
  setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(s.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    return Status::Internal(std::string("connect: ") + std::strerror(errno));
  }
  pollfd p{s.fd, POLLOUT, 0};
  if (poll(&p, 1, 5000) != 1) return Status::Internal("connect timed out");
  int err = 0;
  socklen_t len = sizeof(err);
  getsockopt(s.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    return Status::Internal(std::string("connect: ") + std::strerror(err));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = static_cast<std::uint64_t>(&s - sessions_.data());
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, s.fd, &ev);
  return Status::OK();
}

template <typename Req>
void Generator::Send(Session& s, MessageType type, const Req& req,
                     std::size_t touch, std::int64_t now) {
  const std::uint32_t id = s.next_request++;
  s.out.append(wire::EncodeRequestFrame(type, id, req));
  s.inflight.push_back(Pending{type, id, now, touch});
  ++inflight_;
  Flush(s);
}

void Generator::Flush(Session& s) {
  while (s.out_off < s.out.size()) {
    const ssize_t n = send(s.fd, s.out.data() + s.out_off,
                           s.out.size() - s.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      s.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SetWantWrite(s, true);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    s.broken = true;
    return;
  }
  s.out.clear();
  s.out_off = 0;
  SetWantWrite(s, false);
}

void Generator::SetWantWrite(Session& s, bool want) {
  if (s.want_write == want) return;
  s.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = static_cast<std::uint64_t>(&s - sessions_.data());
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, s.fd, &ev);
}

void Generator::OnReadable(Session& s, std::int64_t now) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = recv(s.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      s.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) s.broken = true;
    break;
  }
  std::size_t pos = 0;
  while (s.in.size() - pos >= wire::kFrameHeaderBytes) {
    const std::string_view rest(s.in.data() + pos, s.in.size() - pos);
    auto header = wire::DecodeHeader(rest);
    if (!header.ok()) {
      s.broken = true;
      break;
    }
    if (rest.size() < wire::kFrameHeaderBytes + header->payload_len) break;
    OnResponse(s, *header,
               rest.substr(wire::kFrameHeaderBytes, header->payload_len),
               now);
    pos += wire::kFrameHeaderBytes + header->payload_len;
  }
  s.in.erase(0, pos);
}

void Generator::OnResponse(Session& s, const wire::FrameHeader& header,
                           std::string_view payload, std::int64_t now) {
  if (s.inflight.empty() ||
      s.inflight.front().request_id != header.request_id) {
    s.broken = true;  // The gateway answers a connection's frames in order.
    return;
  }
  const Pending pending = s.inflight.front();
  s.inflight.pop_front();
  --inflight_;
  auto envelope = wire::DecodeResponsePayload(payload);
  const bool ok = envelope.ok() && envelope->code == api::WireCode::kOk;

  if (phases_ == nullptr || (pending.type != MessageType::kSubmitBatch &&
                             pending.type != MessageType::kSessionSnapshot)) {
    if (s.reopening) {
      OnReopenResponse(s, pending.type, ok,
                       ok ? envelope->body : std::string_view(), now);
      return;
    }
    s.last_ok = ok;
    s.last_body = ok ? std::string(envelope->body) : std::string();
    s.last_error = envelope.ok() ? envelope->message : "undecodable response";
    if (pending.type == MessageType::kSessionSnapshot) s.poll_inflight = false;
    if (pending.type == MessageType::kSubmitBatch && !ok) ++warmup_errors_;
    return;
  }

  if (pending.type == MessageType::kSubmitBatch) {
    TouchTimes& first = TimesOf(s, pending.touch);
    PhaseResult* phase =
        first.phase >= 0 ? &(*phases_)[static_cast<std::size_t>(first.phase)]
                         : nullptr;
    api::SubmitBatchResp resp;
    bool decoded = false;
    if (ok) {
      wire::WireReader reader(envelope->body);
      decoded = wire::Decode(reader, &resp).ok();
    }
    if (phase != nullptr) {
      phase->submit_rtt.Record(now - pending.sent_ns);
      if (!decoded) ++phase->errors;
    } else if (!decoded) {
      ++warmup_errors_;
    }
    const std::size_t end = pending.touch + pending.count;
    for (std::size_t k = pending.touch; k < end; ++k) {
      TimesOf(s, k).acked = now;
    }
    // The server admits a batch's events in order until the session queue
    // is full, so the refused ones are taken to be the batch's last.
    const auto refused = static_cast<std::size_t>(
        std::clamp<std::int64_t>(resp.rejected, 0, pending.count));
    for (std::size_t k = end - refused; k < end; ++k) {
      s.loss[k] = Outcome::kRejected;
    }
    s.rejected_acked += static_cast<std::int64_t>(refused);
    if (refused > 0) Advance(s);
    return;
  }

  // SessionSnapshot poll.
  s.poll_inflight = false;
  const std::size_t owner = s.answered;
  PhaseResult* phase = nullptr;
  if (owner < s.next_send && TimesOf(s, owner).phase >= 0) {
    phase = &(*phases_)[static_cast<std::size_t>(TimesOf(s, owner).phase)];
  }
  if (phase != nullptr) {
    phase->snapshot_rtt.Record(now - pending.sent_ns);
    ++phase->polls;
    if (phase->traced) s.polls.emplace_back(pending.sent_ns, now);
  }
  if (!ok) {
    if (phase != nullptr) ++phase->errors;
    return;
  }
  if (sample_snapshots_.size() < kSampleFrames) {
    sample_snapshots_.emplace_back(payload);
  }
  api::SessionSnapshotResp snap;
  wire::WireReader reader(envelope->body);
  if (!wire::Decode(reader, &snap).ok()) {
    if (phase != nullptr) ++phase->errors;
    return;
  }
  if (phase != nullptr) {
    phase->rows_scanned += snap.rows_scanned - s.rows_scanned;
    phase->entries_returned += snap.entries_returned - s.entries_returned;
  }
  s.rows_scanned = snap.rows_scanned;
  s.entries_returned = snap.entries_returned;
  const View view{now, snap.touch_events, snap.result_count};
  const View& last = s.views.empty() ? s.view : s.views.back();
  if (view.touch_events != last.touch_events ||
      view.result_count != last.result_count) {
    s.views.push_back(view);
  }
  Advance(s);
}

void Generator::Advance(Session& s) {
  while (!s.views.empty()) {
    if (!Apply(s, s.views.front())) return;
    s.view = s.views.front();
    s.views.pop_front();
  }
  // Touches lost since the last view may let it answer more of them.
  if (!Apply(s, s.view)) s.views.push_front(s.view);
}

bool Generator::Apply(Session& s, const View& v) {
  const SessionPlan& plan = *s.plan;
  while (s.answered < s.next_send) {
    const std::size_t k = s.answered;
    if (s.loss[k] != Outcome::kAnswered) {
      Resolve(s, k, v.ns, s.loss[k]);
      continue;
    }
    // Touch k is answered once the server executed it: the touches before
    // it were executed or lost, and the kernel counted one more. Until the
    // session loses a touch, its results must also have reached the
    // reference count; past a loss the reference no longer applies.
    if (v.touch_events + s.lost_resolved < static_cast<std::int64_t>(k + 1)) {
      return true;
    }
    if (s.lost_resolved == 0 && v.result_count < plan.ref_count[k]) {
      return true;
    }
    // Seen this late, touch k may instead have been shed and the count
    // reached by a later touch: wait for a probe read after the view.
    if (v.ns - TimesOf(s, k).due > drop_floor_ns_ && s.probed_ns < v.ns) {
      s.needs_probe = true;
      return false;
    }
    Resolve(s, k, v.ns, Outcome::kAnswered);
  }
  return true;
}

std::int64_t Generator::ProbeIfDue(std::int64_t now) {
  bool wanted = false;
  for (Session& s : sessions_) {
    wanted = wanted || s.needs_probe ||
             (s.answered < s.next_send &&
              now - TimesOf(s, s.answered).due > drop_floor_ns_);
  }
  if (!wanted) return kNever;
  if (now >= next_probe_) {
    ProbeDrops(now);
    next_probe_ = now + kProbePeriodNs;
  }
  return next_probe_;
}

void Generator::ProbeDrops(std::int64_t now) {
  const std::map<api::SessionId, std::int64_t> dropped = probe_();
  for (Session& s : sessions_) {
    const auto it = dropped.find(s.sid);
    if (it == dropped.end() || s.reopening) continue;
    // The server counts a refusal before its ack arrives; with a batch
    // in flight a refusal could be taken for a late drop.
    const bool batch_in_flight =
        std::any_of(s.inflight.begin(), s.inflight.end(), [](const Pending& p) {
          return p.type == MessageType::kSubmitBatch;
        });
    if (batch_in_flight) continue;
    // The worker pops a session's quanta in order and sheds the overdue
    // ones, so unexplained drops go to the oldest outstanding touches
    // that are old enough to have been shed. The count is exact; which of
    // them was shed is not known to the client.
    std::int64_t unexplained =
        it->second - s.rejected_acked - s.drops_attributed;
    for (std::size_t k = s.answered; unexplained > 0 && k < s.next_send; ++k) {
      if (s.loss[k] != Outcome::kAnswered) continue;
      if (now - TimesOf(s, k).due <= drop_floor_ns_) break;
      s.loss[k] = Outcome::kDropped;
      ++s.drops_attributed;
      --unexplained;
    }
    s.probed_ns = now;
    s.needs_probe = false;
    Advance(s);
  }
}

void Generator::Resolve(Session& s, std::size_t k, std::int64_t now,
                        Outcome outcome) {
  s.answered = k + 1;
  if (outcome == Outcome::kRejected || outcome == Outcome::kDropped) {
    ++s.lost_resolved;
  }
  const TouchTimes& t = TimesOf(s, k);
  if (t.phase < 0 || phases_ == nullptr) {
    // Warm-up: a touch the server lost is its legitimate answer; only a
    // touch that never resolved is an error.
    if (outcome == Outcome::kTimedOut) ++warmup_errors_;
    s.polls.clear();
    return;
  }
  PhaseResult& phase = (*phases_)[static_cast<std::size_t>(t.phase)];
  switch (outcome) {
    case Outcome::kAnswered: {
      ++phase.answered;
      const std::int64_t latency = now - t.due;
      if (latency <= kFrameBudgetUs * 1000) ++phase.in_frame;
      phase.latency.Record(latency);
      phase.Window(t.due).Record(latency);
      break;
    }
    case Outcome::kRejected:
      ++phase.rejected;
      break;
    case Outcome::kDropped:
      ++phase.dropped;
      break;
    case Outcome::kTimedOut:
      ++phase.timeouts;
      break;
  }
  if (phase.traced && phase.spans.size() < kMaxSpans) {
    const std::int64_t id =
        (static_cast<std::int64_t>(&s - sessions_.data()) << 32) |
        static_cast<std::int64_t>(k);
    auto& spans = phase.spans;
    const std::int64_t root = static_cast<std::int64_t>(spans.size());
    const std::int64_t acked = t.acked > 0 ? t.acked : now;
    spans.push_back(Span{kSpanTouch, t.due, now, -1, id});
    spans.push_back(Span{kSpanSendDelay, t.due, t.sent, root, id});
    spans.push_back(Span{kSpanSubmit, t.sent, acked, root, id});
    const std::int64_t wait = static_cast<std::int64_t>(spans.size());
    spans.push_back(Span{kSpanAnswerWait, acked, now, root, id});
    for (const auto& [a, b] : s.polls) {
      spans.push_back(Span{kSpanPoll, a, b, wait, id});
    }
  }
  // Polls belong to the oldest outstanding touch when they return.
  s.polls.clear();
}

template <typename Req, typename Resp>
Status Generator::RoundTrip(Session& s, MessageType type, const Req& req,
                            Resp* resp) {
  if (s.broken) return Status::Internal("connection broken");
  Send(s, type, req, 0, NowNs());
  const std::int64_t deadline = NowNs() + 10'000'000'000;
  while (!s.inflight.empty()) {
    if (s.broken || NowNs() > deadline) {
      return Status::Internal("no response");
    }
    // Spins: a blocking wait would add the host's wake-up latency to
    // every set-up round trip.
    pollfd p{s.fd, static_cast<short>(POLLIN | (s.want_write ? POLLOUT : 0)),
             0};
    if (poll(&p, 1, 0) > 0) {
      if (p.revents & POLLOUT) Flush(s);
      if (p.revents & (POLLIN | POLLHUP | POLLERR)) OnReadable(s, NowNs());
    }
  }
  if (!s.last_ok) return Status::Internal("request failed: " + s.last_error);
  wire::WireReader reader(s.last_body);
  return wire::Decode(reader, resp);
}

Status Generator::OpenSession(Session& s) {
  api::OpenSessionResp open;
  Status st =
      RoundTrip(s, MessageType::kOpenSession, api::OpenSessionReq{}, &open);
  if (!st.ok()) return st;
  s.sid = open.session;
  api::CreateObjectReq create = s.plan->create;
  create.session = s.sid;
  api::CreateObjectResp object;
  st = RoundTrip(s, MessageType::kCreateObject, create, &object);
  if (!st.ok()) return st;
  s.object = object.object;
  api::SetActionReq set;
  set.session = s.sid;
  set.object = s.object;
  set.action = s.plan->action;
  api::SetActionResp set_resp;
  return RoundTrip(s, MessageType::kSetAction, set, &set_resp);
}

Status Generator::Open() {
  for (Session& s : sessions_) {
    Status st = Connect(s);
    if (st.ok()) st = OpenSession(s);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void Generator::SendTouches(Session& s, const api::WireTouchEvent* events,
                            std::size_t n, std::size_t first, bool paced,
                            std::int64_t due, std::int64_t now) {
  api::SubmitBatchReq req;
  req.session = s.sid;
  req.paced = paced;
  req.events.assign(events, events + n);
  for (std::size_t k = first; k < first + n; ++k) {
    TouchTimes& t = TimesOf(s, k);
    t.due = due;
    t.sent = now;
    t.acked = 0;
  }
  s.next_send = first + n;
  if (sample_submits_.size() < kSampleFrames) sample_submits_.push_back(req);
  Send(s, MessageType::kSubmitBatch, req, first, now);
  s.inflight.back().count = n;
}

std::size_t Generator::SendNextGesture(Session& s, std::int32_t phase,
                                       std::int64_t now) {
  s.gesture.clear();
  const std::size_t n = s.source->Next(&s.gesture);
  if (s.next_send + n > s.plan->ref_count.size()) {
    StartReopen(s, now);
    return 0;
  }
  s.times[0].phase = phase;
  SendTouches(s, s.gesture.data(), n, s.next_send, /*paced=*/false, now, now);
  SendPoll(s, now);
  return n;
}

void Generator::StartReopen(Session& s, std::int64_t now) {
  s.reopening = true;
  api::CloseSessionReq close;
  close.session = s.sid;
  Send(s, MessageType::kCloseSession, close, 0, now);
  Send(s, MessageType::kOpenSession, api::OpenSessionReq{}, 0, now);
}

void Generator::OnReopenResponse(Session& s, MessageType type, bool ok,
                                 std::string_view body, std::int64_t now) {
  wire::WireReader reader(body);
  if (!ok) {
    s.broken = true;
    return;
  }
  switch (type) {
    case MessageType::kOpenSession: {
      api::OpenSessionResp open;
      if (!wire::Decode(reader, &open).ok()) break;
      s.sid = open.session;
      api::CreateObjectReq create = s.plan->create;
      create.session = s.sid;
      Send(s, MessageType::kCreateObject, create, 0, now);
      return;
    }
    case MessageType::kCreateObject: {
      api::CreateObjectResp object;
      if (!wire::Decode(reader, &object).ok()) break;
      s.object = object.object;
      api::SetActionReq set;
      set.session = s.sid;
      set.object = s.object;
      set.action = s.plan->action;
      Send(s, MessageType::kSetAction, set, 0, now);
      return;
    }
    case MessageType::kSetAction:
      // The new session is ready: it replays the plan from its start.
      ++reopens_;
      s.reopening = false;
      s.source = s.plan->source;
      s.next_send = 0;
      s.answered = 0;
      s.rows_scanned = 0;
      s.entries_returned = 0;
      s.view = View{};
      s.views.clear();
      s.loss.assign(s.loss.size(), Outcome::kAnswered);
      s.lost_resolved = 0;
      s.rejected_acked = 0;
      s.drops_attributed = 0;
      s.probed_ns = 0;
      s.needs_probe = false;
      return;
    default:  // CloseSession.
      return;
  }
  s.broken = true;
}

void Generator::SendPoll(Session& s, std::int64_t now) {
  api::SessionSnapshotReq req;
  req.session = s.sid;
  req.max_results = 0;
  s.poll_inflight = true;
  s.next_poll = now + spec_.poll_interval_us * 1000;
  Send(s, MessageType::kSessionSnapshot, req, 0, now);
}

void Generator::ArmTimer(std::int64_t at_ns) {
  itimerspec spec{};
  if (at_ns != kNever) {
    spec.it_value.tv_sec = at_ns / 1'000'000'000;
    spec.it_value.tv_nsec = at_ns % 1'000'000'000;
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;
    }
  }
  timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void Generator::WaitEvents(bool block) {
  epoll_event events[64];
  const int n = epoll_wait(epoll_fd_, events, 64, block ? 100 : 0);
  const std::int64_t now = NowNs();
  for (int i = 0; i < n; ++i) {
    if (events[i].data.u64 == kTimerTag) {
      std::uint64_t expirations = 0;
      (void)!read(timer_fd_, &expirations, sizeof(expirations));
      continue;
    }
    Session& s = sessions_[events[i].data.u64];
    if (events[i].events & EPOLLOUT) Flush(s);
    if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      OnReadable(s, now);
    }
  }
}

Status Generator::Warmup() {
  const std::int64_t start = NowNs();
  for (Session& s : sessions_) {
    if (spec_.open_loop) {
      const auto [first, last] = s.plan->gestures[0];
      SendTouches(s, s.plan->events.data() + first, last - first, first,
                  /*paced=*/false, start, start);
    } else {
      SendNextGesture(s, /*phase=*/-1, start);
    }
    s.next_poll = start;
  }
  // Resolve warm-up answers through the run-mode handlers with no phase
  // attached: a throwaway phase vector makes OnResponse track answers.
  std::vector<PhaseResult> none;
  phases_ = &none;
  const std::int64_t interval = 500'000;
  bool pending = true;
  while (pending) {
    const std::int64_t now = NowNs();
    if (now - start > 30'000'000'000) {
      phases_ = nullptr;
      return Status::Internal("warm-up answers timed out");
    }
    pending = false;
    std::int64_t wake = ProbeIfDue(now);
    for (Session& s : sessions_) {
      if (s.broken) {
        phases_ = nullptr;
        return Status::Internal("connection broken during warm-up");
      }
      if (s.answered < s.next_send || s.poll_inflight) pending = true;
      if (s.answered < s.next_send && !s.poll_inflight) {
        if (s.next_poll <= now) {
          SendPoll(s, now);
          s.next_poll = now + interval;
        }
        wake = std::min(wake, s.next_poll);
      }
    }
    if (!pending) break;
    ArmTimer(wake);
    WaitEvents(/*block=*/inflight_ == 0 && wake - NowNs() > kSpinNs);
  }
  phases_ = nullptr;
  return warmup_errors_ == 0 ? Status::OK()
                             : Status::Internal("warm-up touches failed");
}

std::vector<PhaseResult> Generator::Run(
    const std::vector<std::int64_t>& phase_lengths_ns,
    const std::vector<bool>& traced,
    const std::function<LayerStats()>& stats) {
  std::vector<PhaseResult> result(phase_lengths_ns.size());
  phases_ = &result;
  // A short lead keeps the first sends from being due before the loop runs.
  const std::int64_t start = NowNs() + 20'000'000;
  std::vector<std::int64_t> ends;
  std::int64_t t = start;
  for (std::size_t i = 0; i < phase_lengths_ns.size(); ++i) {
    result[i].start_ns = t;
    t += phase_lengths_ns[i];
    result[i].end_ns = t;
    result[i].traced = traced[i];
    result[i].MakeWindows();
    ends.push_back(t);
  }
  const std::int64_t end_all = t;
  const auto phase_of = [&](std::int64_t at) -> std::int32_t {
    for (std::size_t i = 0; i < ends.size(); ++i) {
      if (at < ends[i]) return static_cast<std::int32_t>(i);
    }
    return -1;
  };

  // Open loop: the due time of a session's next touch on this run's clock.
  const auto DueNs = [](std::int64_t epoch, const Session& s) {
    return epoch + s.plan->due_offset_us[s.next_send] * 1000;
  };
  using Due = std::pair<std::int64_t, std::size_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> schedule;
  if (spec_.open_loop) {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      Session& s = sessions_[i];
      s.next_send = s.plan->gestures[0].second;
      if (s.next_send < s.plan->events.size()) {
        schedule.emplace(DueNs(start, s), i);
      }
    }
  }

  while (NowNs() < start) {
    ArmTimer(start);
    WaitEvents(true);
  }
  result[0].begin = stats();
  std::size_t current = 0;
  std::int64_t next_rss = start;
  std::int64_t next_housekeeping = start;
  while (true) {
    std::int64_t now = NowNs();
    while (current < ends.size() && now >= ends[current]) {
      result[current].end = stats();
      ++current;
      if (current < ends.size()) {
        result[current].begin = result[current - 1].end;
      }
      now = NowNs();
    }
    const bool sending = now < end_all;

    if (spec_.open_loop) {
      while (!schedule.empty() && schedule.top().first <= now) {
        const auto [due, index] = schedule.top();
        schedule.pop();
        if (due >= end_all) continue;
        Session& s = sessions_[index];
        const std::size_t k = s.next_send;
        const std::int32_t phase = phase_of(due);
        s.times[k].phase = phase;
        SendTouches(s, &s.plan->events[k], 1, k, /*paced=*/true, due, now);
        result[static_cast<std::size_t>(phase)].send_lag.Record(now - due);
        ++result[static_cast<std::size_t>(phase)].attempted;
        if (!s.poll_inflight) SendPoll(s, now);
        if (s.next_send < s.plan->events.size()) {
          schedule.emplace(DueNs(start, s), index);
        }
      }
    } else if (sending) {
      for (Session& s : sessions_) {
        if (s.answered < s.next_send || s.poll_inflight || s.broken ||
            s.reopening) {
          continue;
        }
        const std::int32_t phase = phase_of(now);
        result[static_cast<std::size_t>(phase)].attempted +=
            static_cast<std::int64_t>(SendNextGesture(s, phase, now));
      }
    }

    std::int64_t wake = sending ? ends[current] : end_all + kDrainNs;
    bool outstanding = false;
    for (Session& s : sessions_) {
      if (s.answered >= s.next_send) continue;
      outstanding = true;
      if (s.poll_inflight) continue;
      if (s.next_poll <= now) {
        SendPoll(s, now);
      } else {
        wake = std::min(wake, s.next_poll);
      }
    }
    wake = std::min(wake, ProbeIfDue(now));
    if (now >= next_housekeeping) {
      next_housekeeping = now + 50'000'000;
      for (Session& s : sessions_) {
        while (s.answered < s.next_send &&
               (s.broken ||
                now - TimesOf(s, s.answered).sent > kAnswerTimeoutNs)) {
          Resolve(s, s.answered, now, Outcome::kTimedOut);
        }
      }
    }
    wake = std::min(wake, next_housekeeping);
    if (current < ends.size()) {
      if (now >= next_rss) {
        result[current].rss_peak_bytes =
            std::max(result[current].rss_peak_bytes, ResidentBytes());
        next_rss = now + kRssPeriodNs;
      }
      wake = std::min(wake, next_rss);
    }
    if (!sending && !outstanding) break;
    if (!sending && now >= end_all + kDrainNs) {
      for (Session& s : sessions_) {
        while (s.answered < s.next_send) {
          Resolve(s, s.answered, now, Outcome::kTimedOut);
        }
      }
      break;
    }
    if (!schedule.empty()) wake = std::min(wake, schedule.top().first);
    // Sleep only through long idle gaps. With a response in flight or a
    // send due soon the loop spins: a wake-up from a halted CPU can arrive
    // milliseconds late, and the generator would time its own wake-ups.
    ArmTimer(wake - kSpinNs);
    WaitEvents(/*block=*/inflight_ == 0 && wake - NowNs() > kSpinNs);
  }
  while (current < ends.size()) {
    result[current].end = stats();
    ++current;
    if (current < ends.size()) {
      result[current].begin = result[current - 1].end;
    }
  }
  // Let the last polls land so the connections are quiet for the check.
  const std::int64_t quiet_deadline = NowNs() + 2'000'000'000;
  while (NowNs() < quiet_deadline) {
    bool busy = false;
    for (const Session& s : sessions_) busy = busy || !s.inflight.empty();
    if (!busy) break;
    ArmTimer(NowNs() + 1'000'000);
    WaitEvents(true);
  }
  phases_ = nullptr;
  return result;
}

Generator::CheckResult Generator::FinalCheck(
    const std::vector<bool>& shed_possible,
    const std::map<api::SessionId, std::int64_t>& dropped) {
  constexpr std::int64_t kTail = 256;
  CheckResult check;
  const auto fail = [&](std::size_t s, const std::string& what) {
    if (check.ok) {
      check.first_mismatch = "session " + std::to_string(s) + ": " + what;
    }
    check.ok = false;
  };
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session& s = sessions_[i];
    const SessionPlan& plan = *s.plan;
    api::SessionSnapshotReq req;
    req.session = s.sid;
    req.max_results = kTail;
    api::SessionSnapshotResp snap;
    const Status st = RoundTrip(s, MessageType::kSessionSnapshot, req, &snap);
    if (!st.ok()) {
      fail(i, "final snapshot failed: " + st.ToString());
      continue;
    }
    const std::size_t sent = s.next_send;
    const std::int64_t expected = sent == 0 ? 0 : plan.ref_count[sent - 1];
    const auto it = dropped.find(s.sid);
    const std::int64_t lost = it == dropped.end() ? 0 : it->second;
    if (snap.touch_events + lost != static_cast<std::int64_t>(sent)) {
      fail(i, "touch_events " + std::to_string(snap.touch_events) +
                  " + dropped " + std::to_string(lost) + " != sent " +
                  std::to_string(sent));
      continue;
    }
    if (lost > 0) {
      ++check.sessions_counts_only;
      continue;
    }
    if (snap.result_count != expected) {
      fail(i, "result_count " + std::to_string(snap.result_count) +
                  " != reference " + std::to_string(expected));
      continue;
    }
    const std::int64_t tail = static_cast<std::int64_t>(snap.results.size());
    if (tail != std::min(kTail, expected)) {
      fail(i, "result tail has " + std::to_string(tail) + " entries");
      continue;
    }
    for (std::int64_t j = 0; j < tail; ++j) {
      const api::ResultInfo& got = snap.results[static_cast<std::size_t>(j)];
      const RefResult& want =
          plan.ref_results[static_cast<std::size_t>(expected - tail + j)];
      ++check.results_compared;
      const bool shed_summary =
          shed_possible[i] &&
          want.kind == static_cast<std::uint8_t>(
                           dbtouch::core::ResultKind::kSummary);
      if (got.object != want.object || got.kind != want.kind ||
          got.row != want.row) {
        fail(i, "result " + std::to_string(expected - tail + j) +
                    " differs in object/kind/row");
        break;
      }
      if (shed_summary) {
        ++check.values_unchecked;
        continue;
      }
      const bool same_value =
          std::memcmp(&got.value, &want.value, sizeof(double)) == 0 ||
          (std::isnan(got.value) && std::isnan(want.value));
      if (!same_value || got.approximate != want.approximate ||
          got.partial) {
        fail(i, "result " + std::to_string(expected - tail + j) +
                    " differs in value");
        break;
      }
    }
  }
  return check;
}

Status Generator::CloseAll() {
  Status first = Status::OK();
  for (Session& s : sessions_) {
    if (s.fd < 0) continue;
    if (!s.broken) {
      api::CloseSessionReq req;
      req.session = s.sid;
      api::CloseSessionResp resp;
      const Status st = RoundTrip(s, MessageType::kCloseSession, req, &resp);
      if (!st.ok() && first.ok()) first = st;
    }
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s.fd, nullptr);
    close(s.fd);
    s.fd = -1;
  }
  return first;
}

}  // namespace touchbench

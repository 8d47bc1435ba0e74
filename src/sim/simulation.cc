#include "src/sim/simulation.h"

#include "src/obs/obs.h"
#include "src/util/check.h"

// ThreadSanitizer keeps one shadow stack per thread and does not notice a
// swapcontext; the fiber annotations below give every fiber its own and
// tell TSan which one runs. gcc defines __SANITIZE_THREAD__, clang reports
// the feature.
#if defined(__SANITIZE_THREAD__)
#define ARTC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ARTC_TSAN_FIBERS 1
#endif
#endif
#ifdef ARTC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace artc::sim {
namespace {

// Thrown out of blocking primitives when the Simulation is destroyed while
// threads are still blocked (e.g., a deadlocked test); unwinds the simulated
// thread so its fiber stack can be reclaimed.
struct SimShutdown {};

// Owned stack for one fiber. Replay threads call through the VFS and the
// storage stack but nothing recursion-heavy; 512 KiB leaves a wide margin
// while keeping even a 100-fiber simulation under ~50 MB. Stacks go back to
// the simulation's pool when their thread finishes, so peak RSS tracks the
// maximum number of *live* threads, not the total ever spawned.
constexpr size_t kFiberStackBytes = 512 * 1024;

// Thread ids double as virtual-time trace track ids, so they stay below the
// obs pseudo-tracks (I/O scheduler, critpath overlay).
constexpr size_t kMaxThreads = obs::kIoSchedulerTrack;

}  // namespace

struct PendingEvent {
  TimeNs when;
  uint64_t seq;  // tie-break for stable ordering
  ThreadState* thread;              // wake this thread, or
  std::function<void()> callback;   // run this callback
  uint64_t callback_id;
  bool cancelled;
};

bool Simulation::EventCompare::operator()(const PendingEvent* a,
                                          const PendingEvent* b) const {
  if (a->when != b->when) {
    return a->when > b->when;
  }
  return a->seq > b->seq;
}

struct ThreadState {
  enum class Run { kReady, kRunning, kBlocked, kDone };

  SimThreadId id = kInvalidThread;
  std::string name;
  std::function<void()> body;
  Run state = Run::kReady;
  std::vector<ThreadState*> joiners;
  Simulation* sim = nullptr;

  // The stack comes from the pool lazily on first schedule, so
  // spawned-but-never-run threads cost only this record.
  ucontext_t ctx;
  std::unique_ptr<char[]> stack;
  bool fiber_started = false;
  void* tsan_fiber = nullptr;  // ThreadSanitizer builds only
};

namespace {

// The simulated thread currently executing on this host thread. Everything
// runs on the host thread that called Run(), so the scheduler updates this
// around every fiber switch.
thread_local ThreadState* g_current = nullptr;

// Argument hand-off into a starting fiber: makecontext's entry function
// takes no usable pointer argument, so FiberSwitchTo parks the target here
// immediately before the first swap into it.
thread_local ThreadState* g_fiber_launch = nullptr;

// Tells TSan that the next swapcontext/setcontext enters `fiber`. Switches
// synchronize (no __tsan_switch_to_fiber_no_sync): the fibers of one
// Simulation run strictly one at a time, so one fiber's writes
// happen-before the next fiber's reads.
inline void TsanSwitchTo([[maybe_unused]] void* fiber) {
#ifdef ARTC_TSAN_FIBERS
  __tsan_switch_to_fiber(fiber, 0);
#endif
}

}  // namespace

void Simulation::FiberEntry() {
  ThreadState* t = g_fiber_launch;
  g_fiber_launch = nullptr;
  t->sim->FiberMain(t);
}

void Simulation::FiberMain(ThreadState* t) {
  bool aborted = false;
  try {
    t->body();
  } catch (const SimShutdown&) {
    aborted = true;
  }
  FinishThread(t, aborted);
  // Leave through setcontext, never by returning: TSan must hear about the
  // switch back to the scheduler before it happens, and a return after that
  // (through uc_link) would pop this fiber's frames off the scheduler's TSan
  // shadow stack. The scheduler then releases this fiber's stack.
  TsanSwitchTo(sched_tsan_fiber_);
  setcontext(&sched_ctx_);
  ARTC_CHECK_MSG(false, "setcontext into the scheduler failed");
}

Simulation::Simulation(uint64_t seed, SimBackend /*backend*/) : rng_(seed) {}

Simulation::~Simulation() {
  shutdown_ = true;
  // Resume every unfinished fiber so it throws SimShutdown out of its
  // blocking primitive, unwinding its stack (running destructors) before
  // the stacks are freed. Index-based: an unwinding destructor may Spawn.
  for (size_t i = 0; i < threads_.size(); ++i) {
    ThreadState* t = threads_[i].get();
    if (t->fiber_started && t->state != ThreadState::Run::kDone) {
      FiberSwitchTo(t);
    }
  }
}

SimThreadId Simulation::Spawn(std::string name, std::function<void()> body) {
  ARTC_CHECK_MSG(threads_.size() < kMaxThreads, "simulated thread limit exceeded");
  auto t = std::make_unique<ThreadState>();
  t->id = static_cast<SimThreadId>(threads_.size());
  t->name = std::move(name);
  t->body = std::move(body);
  t->sim = this;
  t->state = ThreadState::Run::kReady;
  ThreadState* raw = t.get();
  threads_.push_back(std::move(t));
  ready_.push_back(raw);
  ARTC_OBS_IF_ENABLED {
    // Label the simulated thread's virtual-time track ("replay-3", "init",
    // ...) so trace viewers show sim thread names, not bare ids.
    obs::DefaultTracer().SetTrackName(obs::ClockDomain::kVirtual, raw->id,
                                      raw->name);
  }
  return raw->id;
}

void Simulation::FinishThread(ThreadState* t, bool aborted) {
  t->state = ThreadState::Run::kDone;
  if (aborted) {
    return;  // shutdown unwind: joiners are unwound separately
  }
  for (ThreadState* j : t->joiners) {
    ARTC_CHECK(j->state == ThreadState::Run::kBlocked);
    j->state = ThreadState::Run::kReady;
    ready_.push_back(j);
  }
  t->joiners.clear();
}

void Simulation::FiberSwitchTo(ThreadState* t) {
  if (!t->fiber_started) {
    if (!free_stacks_.empty()) {
      t->stack = std::move(free_stacks_.back());
      free_stacks_.pop_back();
    } else {
      t->stack = std::make_unique<char[]>(kFiberStackBytes);
      stacks_allocated_++;
    }
    stacks_in_use_++;
    ARTC_CHECK(getcontext(&t->ctx) == 0);
    t->ctx.uc_stack.ss_sp = t->stack.get();
    t->ctx.uc_stack.ss_size = kFiberStackBytes;
    t->ctx.uc_link = nullptr;  // FiberMain never returns
    makecontext(&t->ctx, &Simulation::FiberEntry, 0);
    t->fiber_started = true;
#ifdef ARTC_TSAN_FIBERS
    t->tsan_fiber = __tsan_create_fiber(0);
#endif
    g_fiber_launch = t;
  }
#ifdef ARTC_TSAN_FIBERS
  sched_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  g_current = t;
  TsanSwitchTo(t->tsan_fiber);
  ARTC_CHECK(swapcontext(&sched_ctx_, &t->ctx) == 0);
  g_current = nullptr;
  if (t->state == ThreadState::Run::kDone && t->stack != nullptr) {
    // The fiber ran to completion (or unwound) and resumed us; its stack is
    // dead and goes back to the pool.
    free_stacks_.push_back(std::move(t->stack));
    stacks_in_use_--;
#ifdef ARTC_TSAN_FIBERS
    __tsan_destroy_fiber(t->tsan_fiber);
    t->tsan_fiber = nullptr;
#endif
  }
}

size_t Simulation::ChooseIndex(ChoicePoint point,
                               const std::vector<ThreadState*>& candidates) {
  const size_t n = candidates.size();
  if (n == 1) {
    return 0;
  }
  if (policy_ == nullptr) {
    return rng_.NextBelow(n);
  }
  policy_ids_.clear();
  for (ThreadState* t : candidates) {
    policy_ids_.push_back(t->id);
  }
  size_t pick = policy_->Pick(point, policy_ids_.data(), n, rng_);
  ARTC_CHECK_MSG(pick < n, "schedule policy returned an out-of-range pick");
  return pick;
}

ThreadState* Simulation::PickReady() {
  ARTC_CHECK(!ready_.empty());
  size_t idx = ChooseIndex(ChoicePoint::kRun, ready_);
  ThreadState* t = ready_[idx];
  ready_[idx] = ready_.back();
  ready_.pop_back();
  return t;
}

void Simulation::RunThread(ThreadState* t) {
  switches_++;
  ARTC_OBS_COUNT("sim.context_switches", 1);
  // Depth includes the thread being dispatched, so an idle scheduler with
  // one runnable thread observes 1, matching run-queue-depth convention.
  ARTC_OBS_OBSERVE("sim.run_queue_depth", ready_.size() + 1);
  t->state = ThreadState::Run::kRunning;
  FiberSwitchTo(t);
}

PendingEvent* Simulation::AllocEvent() {
  if (!free_events_.empty()) {
    PendingEvent* ev = free_events_.back();
    free_events_.pop_back();
    return ev;
  }
  event_pool_.push_back(std::make_unique<PendingEvent>());
  return event_pool_.back().get();
}

void Simulation::ReleaseEvent(PendingEvent* ev) {
  ev->thread = nullptr;
  ev->callback = nullptr;  // drop captured state now, not at teardown
  ev->callback_id = 0;
  ev->cancelled = false;
  free_events_.push_back(ev);
}

TimeNs Simulation::Run() {
  ARTC_CHECK_MSG(g_current == nullptr, "Run() must be called from the host thread");
  // Ready threads first, then due events, until both run dry.
  while (true) {
    if (!ready_.empty()) {
      RunThread(PickReady());
      continue;
    }
    if (events_.empty()) {
      break;
    }
    PendingEvent* ev = events_.top();
    events_.pop();
    if (ev->cancelled) {
      ReleaseEvent(ev);
      continue;
    }
    ARTC_CHECK(ev->when >= now_);
    now_ = ev->when;
    if (ev->thread != nullptr) {
      ARTC_CHECK(ev->thread->state == ThreadState::Run::kBlocked);
      ev->thread->state = ThreadState::Run::kReady;
      ready_.push_back(ev->thread);
      ReleaseEvent(ev);
    } else if (ev->callback) {
      live_callbacks_.erase(ev->callback_id);
      auto fn = std::move(ev->callback);
      ReleaseEvent(ev);
      fn();
    }
  }
  return now_;
}

void Simulation::YieldToScheduler(ThreadState* t, bool runnable_again) {
  if (runnable_again) {
    t->state = ThreadState::Run::kReady;
    ready_.push_back(t);
  } else {
    t->state = ThreadState::Run::kBlocked;
  }
  TsanSwitchTo(sched_tsan_fiber_);
  ARTC_CHECK(swapcontext(&t->ctx, &sched_ctx_) == 0);
  if (shutdown_) {
    throw SimShutdown{};
  }
}

void Simulation::Sleep(TimeNs duration) {
  ARTC_CHECK(duration >= 0);
  ThreadState* t = CurrentState();
  PendingEvent* ev = AllocEvent();
  ev->when = now_ + duration;
  ev->seq = seq_++;
  ev->thread = t;
  ev->callback_id = 0;
  ev->cancelled = false;
  events_.push(ev);
  YieldToScheduler(t, /*runnable_again=*/false);
}

void Simulation::BlockCurrent() {
  YieldToScheduler(CurrentState(), /*runnable_again=*/false);
}

SimThreadId Simulation::CurrentThread() const {
  return g_current != nullptr ? g_current->id : kInvalidThread;
}

const std::string& Simulation::CurrentThreadName() const {
  static const std::string kHost = "<host>";
  return g_current != nullptr ? g_current->name : kHost;
}

ThreadState* Simulation::CurrentState() const {
  ARTC_CHECK_MSG(g_current != nullptr && g_current->sim == this,
                 "not running inside a simulated thread of this simulation");
  return g_current;
}

void Simulation::Join(SimThreadId tid) {
  ARTC_CHECK(tid < threads_.size());
  ThreadState* self = CurrentState();
  ThreadState* target = threads_[tid].get();
  if (target->state == ThreadState::Run::kDone) {
    return;
  }
  target->joiners.push_back(self);
  BlockCurrent();
}

uint64_t Simulation::ScheduleCallback(TimeNs when, std::function<void()> fn) {
  ARTC_CHECK(when >= now_);
  PendingEvent* ev = AllocEvent();
  ev->when = when;
  ev->seq = seq_++;
  ev->thread = nullptr;
  ev->callback = std::move(fn);
  ev->callback_id = next_callback_id_++;
  ev->cancelled = false;
  uint64_t id = ev->callback_id;
  live_callbacks_[id] = ev;
  events_.push(ev);
  return id;
}

bool Simulation::CancelCallback(uint64_t id) {
  auto it = live_callbacks_.find(id);
  if (it == live_callbacks_.end()) {
    return false;
  }
  // The event stays in the queue (lazy deletion) and is recycled when
  // popped, but the callback's captures are released immediately.
  it->second->cancelled = true;
  it->second->callback = nullptr;
  live_callbacks_.erase(it);
  return true;
}

void Simulation::WakeThread(ThreadState* t) {
  if (shutdown_) {
    return;  // unwinding destructors may notify already-unwound threads
  }
  ARTC_CHECK(t->state == ThreadState::Run::kBlocked);
  t->state = ThreadState::Run::kReady;
  ready_.push_back(t);
}

size_t Simulation::UnfinishedThreads() const {
  size_t n = 0;
  for (const auto& t : threads_) {
    if (t->state != ThreadState::Run::kDone) {
      n++;
    }
  }
  return n;
}

void SimCondVar::Wait() {
  waiters_.push_back(sim_->CurrentState());
  sim_->BlockCurrent();
}

void SimCondVar::NotifyOne() {
  if (waiters_.empty()) {
    return;
  }
  size_t idx = sim_->ChooseIndex(ChoicePoint::kWake, waiters_);
  ThreadState* t = waiters_[idx];
  waiters_[idx] = waiters_.back();
  waiters_.pop_back();
  sim_->WakeThread(t);
}

void SimCondVar::NotifyAll() {
  for (ThreadState* t : waiters_) {
    sim_->WakeThread(t);
  }
  waiters_.clear();
}

void SimMutex::Lock() {
  while (locked_) {
    cv_.Wait();
  }
  locked_ = true;
}

void SimMutex::Unlock() {
  ARTC_CHECK(locked_);
  locked_ = false;
  cv_.NotifyOne();
}

bool SimBarrier::Wait() {
  ARTC_CHECK(count_ > 0);
  const uint64_t my_phase = phase_;
  if (++arrived_ == count_) {
    arrived_ = 0;
    phase_++;
    cv_.NotifyAll();
    return true;
  }
  while (phase_ == my_phase) {
    cv_.Wait();
  }
  return false;
}

}  // namespace artc::sim

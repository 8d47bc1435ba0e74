// Discrete-event simulation engine with blocking-style simulated threads.
//
// Every performance experiment in this repository runs in virtual time on
// this engine. Only one simulated thread executes at any instant: the
// scheduler transfers control to exactly one runnable thread and waits for
// it to yield (by blocking on a simulated primitive, sleeping, or
// finishing). This lets application models, the VFS, and the trace
// replayer be written in plain blocking style while virtual time advances
// deterministically.
//
// Every simulated thread is a user-space stackful coroutine (ucontext fiber)
// with its own owned stack, all running on the one host thread that called
// Run(). A simulated context switch is a `swapcontext` — a few dozen
// nanoseconds, no kernel involvement. Under ThreadSanitizer every fiber
// switch is annotated (simulation.cc), so TSan follows the fibers: switches
// within one Simulation are synchronizing, while two simulations on
// different host threads that share unsynchronized memory are reported.
//
// One Simulation is one serial time domain. Host parallelism comes from
// running many independent simulations at once, one per util::ThreadPool
// worker (core::ReplaySuite, the sweep engine); see DESIGN.md §5f.
//
// Determinism: a run is a pure function of (program, seed). When several
// threads are runnable at the same virtual instant, the scheduler picks one
// with its seeded RNG — this models OS scheduling nondeterminism, and
// varying the seed explores different interleavings of the same program.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <ucontext.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/rng.h"
#include "src/util/time.h"

namespace artc::sim {

class Simulation;

// Identifies a simulated thread: its dense spawn index within its
// simulation (0, 1, 2, ...).
using SimThreadId = uint32_t;
inline constexpr SimThreadId kInvalidThread = UINT32_MAX;

// The dense per-simulation index of a thread, for callers that keep
// per-thread vectors.
constexpr uint32_t LocalIndexOfThread(SimThreadId id) { return id; }

// Kept only because perfbench/ still names it; fibers are the one backend.
enum class SimBackend : uint8_t { kFibers };

// Internal per-thread record. Exposed only so SimCondVar can hold pointers.
struct ThreadState;
// Internal scheduler event record (defined in simulation.cc).
struct PendingEvent;

// The two kinds of scheduler choice point a SchedulePolicy can override.
enum class ChoicePoint : uint8_t {
  kRun,   // which ready thread runs next
  kWake,  // which condvar waiter NotifyOne wakes
};

// Overrides the scheduler's seeded-random choices; see src/sim/schedule.h
// for implementations. Pick() is called only when n >= 2 and must return an
// index < n. `sim_rng` is the simulation's stream: a policy may draw from
// it (perturbing downstream seeded decisions exactly like the default
// scheduler would) or keep a private stream and leave it untouched.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  virtual size_t Pick(ChoicePoint point, const SimThreadId* candidates, size_t n,
                      Rng& sim_rng) = 0;
};

// A condition variable for simulated threads. All waits are in virtual time;
// there is no spurious wakeup, but users should still re-check predicates
// because another thread may run between notify and wakeup.
class SimCondVar {
 public:
  explicit SimCondVar(Simulation* simulation) : sim_(simulation) {}
  SimCondVar(const SimCondVar&) = delete;
  SimCondVar& operator=(const SimCondVar&) = delete;

  // Blocks the calling simulated thread until notified.
  void Wait();
  // Wakes one waiter (seeded-random choice among waiters).
  void NotifyOne();
  // Wakes all waiters.
  void NotifyAll();

 private:
  Simulation* sim_;
  std::vector<ThreadState*> waiters_;
};

// A mutex for simulated threads. Execution is serialized by the run token,
// so this exists to model *contention* (waiting in virtual time), not to
// protect memory.
class SimMutex {
 public:
  explicit SimMutex(Simulation* simulation) : sim_(simulation), cv_(simulation) {}
  void Lock();
  void Unlock();
  bool Held() const { return locked_; }

 private:
  Simulation* sim_;
  SimCondVar cv_;
  bool locked_ = false;
};

// A cyclic barrier for simulated threads: the first count-1 arrivals block
// in virtual time; the count-th releases everyone and opens the next phase.
// Wait() returns true on the arrival that tripped the barrier (the pivot),
// mirroring PTHREAD_BARRIER_SERIAL_THREAD.
class SimBarrier {
 public:
  SimBarrier(Simulation* simulation, uint32_t count)
      : sim_(simulation), cv_(simulation), count_(count) {}
  SimBarrier(const SimBarrier&) = delete;
  SimBarrier& operator=(const SimBarrier&) = delete;

  bool Wait();

 private:
  Simulation* sim_;
  SimCondVar cv_;
  uint32_t count_;
  uint32_t arrived_ = 0;
  uint64_t phase_ = 0;
};

class Simulation {
 public:
  // The SimBackend parameter is kept only because perfbench/ still passes one.
  explicit Simulation(uint64_t seed, SimBackend backend = SimBackend::kFibers);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current virtual time.
  TimeNs Now() const { return now_; }

  // Creates a simulated thread. May be called before Run() or from within a
  // running simulated thread; the new thread becomes runnable at the
  // current virtual time.
  SimThreadId Spawn(std::string name, std::function<void()> body);

  // Runs the simulation until no runnable threads or pending events remain.
  // Must be called from the host (non-simulated) thread. Returns the final
  // virtual time.
  TimeNs Run();

  // ---- Calls below are only legal from within a simulated thread. ----

  // Advances virtual time for the calling thread.
  void Sleep(TimeNs duration);

  // Blocks the calling thread until another thread wakes it via WakeThread.
  // Used by SimCondVar; rarely needed directly.
  void BlockCurrent();

  // Id and name of the calling simulated thread.
  SimThreadId CurrentThread() const;
  const std::string& CurrentThreadName() const;

  // Joins a simulated thread (blocks the caller in virtual time).
  void Join(SimThreadId tid);

  // ---- Callable from anywhere inside the simulation. ----

  // Schedules fn to run in scheduler context at virtual time `when`
  // (>= Now()). Callbacks must not block; they may wake threads and
  // schedule further callbacks. Returns an id usable with CancelCallback.
  uint64_t ScheduleCallback(TimeNs when, std::function<void()> fn);
  // Best-effort cancel; returns false if already fired or unknown.
  bool CancelCallback(uint64_t id);

  // Makes a blocked thread runnable at the current virtual time.
  void WakeThread(ThreadState* t);

  // The simulation's seeded RNG; also available to workloads that want
  // reproducible randomness tied to the run.
  Rng& rng() { return rng_; }

  // Installs a schedule policy (non-owning; caller keeps it alive for the
  // simulation's lifetime). nullptr restores the built-in seeded-random
  // scheduler — a run with no policy is bit-identical to one never set.
  // Install before Run(); switching mid-run is legal but rarely useful.
  void SetSchedulePolicy(SchedulePolicy* policy) { policy_ = policy; }
  SchedulePolicy* schedule_policy() const { return policy_; }

  // Total context switches performed (diagnostics).
  uint64_t switch_count() const { return switches_; }

  // Number of PendingEvent records ever allocated (diagnostics). Completed
  // and cancelled events are recycled, so this tracks the maximum number of
  // *simultaneously outstanding* events, not the total scheduled.
  size_t allocated_event_count() const { return event_pool_.size(); }

  // Fiber-stack pool diagnostics. Stacks are returned to a free
  // pool when their thread finishes and are reused by later spawns, so
  // `allocated` is the high-water mark of concurrently *live* threads, not
  // the total ever spawned.
  size_t FiberStacksAllocated() const { return stacks_allocated_; }
  size_t FiberStacksInUse() const { return stacks_in_use_; }

  // Number of simulated threads that have not run to completion. Nonzero
  // after Run() indicates a deadlock in the simulated program.
  size_t UnfinishedThreads() const;

  ThreadState* CurrentState() const;

 private:
  friend class SimCondVar;
  friend class SimMutex;

  struct EventCompare {
    bool operator()(const PendingEvent* a, const PendingEvent* b) const;
  };

  void RunThread(ThreadState* t);  // scheduler: transfer control
  void YieldToScheduler(ThreadState* t, bool runnable_again);
  void FinishThread(ThreadState* t, bool aborted);  // body returned/unwound
  ThreadState* PickReady();
  // One scheduler choice among `candidates`: policy pick if installed,
  // otherwise the seeded-random draw. n == 1 short-circuits to 0 without
  // consuming randomness.
  size_t ChooseIndex(ChoicePoint point, const std::vector<ThreadState*>& candidates);
  PendingEvent* AllocEvent();
  void ReleaseEvent(PendingEvent* ev);

  static void FiberEntry();            // makecontext entry point
  void FiberSwitchTo(ThreadState* t);  // scheduler/destructor -> fiber
  [[noreturn]] void FiberMain(ThreadState* t);  // fiber trampoline body

  TimeNs now_ = 0;
  Rng rng_;
  SchedulePolicy* policy_ = nullptr;     // non-owning
  std::vector<SimThreadId> policy_ids_;  // scratch for policy candidate lists
  uint64_t seq_ = 0;                     // event tie-break
  uint64_t switches_ = 0;
  uint64_t next_callback_id_ = 1;

  std::vector<std::unique_ptr<ThreadState>> threads_;  // indexed by id
  std::vector<ThreadState*> ready_;
  std::priority_queue<PendingEvent*, std::vector<PendingEvent*>, EventCompare> events_;
  // Owns every PendingEvent ever allocated; bounded by the maximum number of
  // events simultaneously outstanding (completed ones are recycled through
  // free_events_, so a long run does not grow this without bound).
  std::deque<std::unique_ptr<PendingEvent>> event_pool_;
  std::vector<PendingEvent*> free_events_;
  std::unordered_map<uint64_t, PendingEvent*> live_callbacks_;

  // The scheduler's own context; fibers resume it when they yield or finish.
  ucontext_t sched_ctx_;
  // The scheduler's TSan fiber (the host thread that switched in); null
  // unless built with ThreadSanitizer.
  void* sched_tsan_fiber_ = nullptr;
  // Stacks of finished threads, reused by later spawns.
  std::vector<std::unique_ptr<char[]>> free_stacks_;
  size_t stacks_allocated_ = 0;
  size_t stacks_in_use_ = 0;

  // Set by the destructor; read by unwinding simulated threads.
  bool shutdown_ = false;
};

// RAII lock for SimMutex.
class SimLockGuard {
 public:
  explicit SimLockGuard(SimMutex& mu) : mu_(mu) { mu_.Lock(); }
  ~SimLockGuard() { mu_.Unlock(); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimMutex& mu_;
};

}  // namespace artc::sim

#endif  // SRC_SIM_SIMULATION_H_

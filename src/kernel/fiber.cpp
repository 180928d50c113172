#include "kernel/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#if !defined(__x86_64__)
#include <ucontext.h>

#include <stdexcept>
#endif

// The sanitizers cannot follow a stack switch on their own. ThreadSanitizer
// sees one OS thread jumping between unrelated stacks and reports false
// races; AddressSanitizer mistakes the fiber stack for a stack overflow or
// uses the wrong bounds when an exception unwinds. Both export a fiber API
// that is told about every switch, which is what lets campaign workers run
// whole simulations under either sanitizer.
#if defined(__SANITIZE_THREAD__)
#define ADRIATIC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ADRIATIC_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define ADRIATIC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ADRIATIC_ASAN_FIBERS 1
#endif
#endif

extern "C" {
#ifdef ADRIATIC_TSAN_FIBERS
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
#endif
#ifdef ADRIATIC_ASAN_FIBERS
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
void __asan_unpoison_memory_region(const volatile void* addr, std::size_t size);
void __lsan_ignore_object(const void* p);
#endif
}

namespace adriatic::kern {

// -- Switch primitives ------------------------------------------------------
//
// Each backend provides a Context (the saved state of a suspended stack) and
// two operations: make_first_frame() prepares a fresh stack so that the first
// switch onto it calls entry(arg), and switch_context() saves the running
// context into `from` and continues `to`.

#if defined(__x86_64__)

// A suspended x86-64 context is just its stack pointer. The switch pushes the
// callee-saved registers (rbx, rbp, r12-r15) and the floating-point control
// state (MXCSR, x87 control word), swaps stack pointers and pops the other
// side's copy. Everything caller-saved is already spilled by the compiler at
// the call, so this is the whole System V state a cooperative switch must
// keep; the signal mask is per thread and left alone, which is what saves
// the system call glibc's swapcontext makes on every switch.
//
// Frame on a suspended stack, from its saved stack pointer upwards:
//   [0] MXCSR (bytes 0-3), x87 control word (bytes 4-5)
//   [1] r15  [2] r14  [3] r13  [4] r12  [5] rbx  [6] rbp  [7] return address
// A fresh stack gets the same frame with the return address pointing at
// adriatic_fiber_entry, r12 = argument and rbx = entry function. The CFI
// stays valid on both sides of the stack swap because both frames have the
// same layout.
extern "C" {
__attribute__((visibility("hidden"))) void adriatic_fiber_switch(void** save,
                                                                 void* load);
__attribute__((visibility("hidden"))) void adriatic_fiber_entry();
}

asm(R"(
  .pushsection .text
  .p2align 4
  .globl adriatic_fiber_switch
  .hidden adriatic_fiber_switch
  .type adriatic_fiber_switch, @function
adriatic_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size adriatic_fiber_switch, .-adriatic_fiber_switch

  .p2align 4
  .globl adriatic_fiber_entry
  .hidden adriatic_fiber_entry
  .type adriatic_fiber_entry, @function
adriatic_fiber_entry:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r12, %rdi
  callq *%rbx
  ud2
  .cfi_endproc
  .size adriatic_fiber_entry, .-adriatic_fiber_entry
  .popsection
)");

namespace {

using Context = void*;

void make_first_frame(Context& ctx, std::vector<char>& stack,
                      void (*entry)(Fiber*), Fiber* arg) {
  // The entry stub starts with %rsp at the 16-byte-aligned top of the stack,
  // so its call into `entry` meets the ABI's alignment at function entry.
  const auto top =
      reinterpret_cast<std::uintptr_t>(stack.data() + stack.size()) &
      ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 8;
  // A new fiber starts with the creating thread's rounding and exception
  // masks, as a getcontext()-made context does.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpucw));
  frame[0] = mxcsr | (std::uint64_t{fpucw} << 32);
  frame[1] = 0;  // r15
  frame[2] = 0;  // r14
  frame[3] = 0;  // r13
  frame[4] = reinterpret_cast<std::uint64_t>(arg);    // r12
  frame[5] = reinterpret_cast<std::uint64_t>(entry);  // rbx
  frame[6] = 0;  // rbp: ends frame-pointer walks at the fiber's base
  frame[7] = reinterpret_cast<std::uint64_t>(&adriatic_fiber_entry);
  ctx = frame;
}

inline void switch_context(Context& from, Context& to) {
  adriatic_fiber_switch(&from, to);
}

}  // namespace

#else  // ucontext fallback for other architectures

namespace {

struct Context {
  ucontext_t uc{};
};

// makecontext() passes only int arguments, so both pointers travel as
// 32-bit halves.
void ucontext_entry(unsigned fn_hi, unsigned fn_lo, unsigned arg_hi,
                    unsigned arg_lo) {
  const auto join = [](unsigned hi, unsigned lo) {
    return static_cast<std::uintptr_t>(
        (static_cast<std::uint64_t>(hi) << 32) | lo);
  };
  const auto entry = reinterpret_cast<void (*)(Fiber*)>(join(fn_hi, fn_lo));
  entry(reinterpret_cast<Fiber*>(join(arg_hi, arg_lo)));
}

void make_first_frame(Context& ctx, std::vector<char>& stack,
                      void (*entry)(Fiber*), Fiber* arg) {
  if (getcontext(&ctx.uc) != 0)
    throw std::runtime_error("Fiber: getcontext failed");
  ctx.uc.uc_stack.ss_sp = stack.data();
  ctx.uc.uc_stack.ss_size = stack.size();
  ctx.uc.uc_link = nullptr;
  const auto fn = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(entry));
  const auto a = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(arg));
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&ucontext_entry), 4,
              static_cast<unsigned>(fn >> 32), static_cast<unsigned>(fn),
              static_cast<unsigned>(a >> 32), static_cast<unsigned>(a));
}

inline void switch_context(Context& from, Context& to) {
  swapcontext(&from.uc, &to.uc);
}

}  // namespace

#endif

// -- Fiber ------------------------------------------------------------------

struct Fiber::Impl {
  Context ctx{};         ///< The fiber, while suspended.
  Context return_ctx{};  ///< The scheduler, while the fiber runs.
  std::vector<char> stack;

  // Sanitizer notifications around each switch; no-ops in normal builds.
  // scheduler -> fiber: enter() before the switch, arrived() on the fiber;
  // fiber -> scheduler: leave() before the switch, returned() after it.
#ifdef ADRIATIC_TSAN_FIBERS
  void* tsan_fiber = nullptr;
  void* tsan_return = nullptr;
#endif
#ifdef ADRIATIC_ASAN_FIBERS
  void* asan_fake_stack = nullptr;        ///< The fiber's, while suspended.
  void* asan_return_fake_stack = nullptr;  ///< The scheduler's.
  const void* asan_return_bottom = nullptr;
  std::size_t asan_return_size = 0;
#endif

  void enter() {
#ifdef ADRIATIC_TSAN_FIBERS
    tsan_return = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
#ifdef ADRIATIC_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&asan_return_fake_stack, stack.data(),
                                   stack.size());
#endif
  }
  void arrived() {
#ifdef ADRIATIC_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(asan_fake_stack, &asan_return_bottom,
                                    &asan_return_size);
#endif
  }
  void leave([[maybe_unused]] bool finishing) {
#ifdef ADRIATIC_ASAN_FIBERS
    // A finishing fiber never comes back, so its fake stack is released.
    __sanitizer_start_switch_fiber(finishing ? nullptr : &asan_fake_stack,
                                   asan_return_bottom, asan_return_size);
#endif
#ifdef ADRIATIC_TSAN_FIBERS
    __tsan_switch_to_fiber(tsan_return, 0);
#endif
  }
  void returned() {
#ifdef ADRIATIC_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(asan_return_fake_stack, nullptr, nullptr);
#endif
  }

#ifdef ADRIATIC_ASAN_FIBERS
  /// The frames of a fiber destroyed while suspended are abandoned, never
  /// unwound, so what they own is never freed. For LeakSanitizer, a copy of
  /// the live part of the stack and of the saved registers is kept in an
  /// ignored heap block, which it scans as a root: objects the abandoned
  /// frames still reference count as reachable, as they would with the
  /// frames left in place, and memory lost any other way is still reported.
  void keep_abandoned_frames_reachable() {
#if defined(__x86_64__)
    const char* low = static_cast<const char*>(ctx);  // saved register frame
#else
    const char* low = stack.data();
#endif
    const char* high = stack.data() + stack.size();
    const auto live = static_cast<std::size_t>(high - low);
    __asan_unpoison_memory_region(low, live);
    auto* copy = new char[live + sizeof(Context)];
    std::memcpy(copy, low, live);
    std::memcpy(copy + live, &ctx, sizeof(Context));
    __lsan_ignore_object(copy);
  }
#endif
};

namespace {
// The fiber currently executing on this thread (nullptr = scheduler context).
thread_local Fiber* t_current = nullptr;

// Retired fiber stacks, kept per thread for reuse. Campaign jobs spawn
// thousands of short-lived processes; recycling stacks avoids both the
// allocation and the page-zeroing of a fresh 256 KB vector each time. The
// pool is bounded so a burst of unusually many concurrent fibers does not
// pin memory forever.
constexpr std::size_t kMaxPooledStacks = 64;
thread_local std::vector<std::vector<char>> t_stack_pool;

std::vector<char> acquire_stack(std::size_t bytes) {
  for (std::size_t i = t_stack_pool.size(); i-- > 0;) {
    if (t_stack_pool[i].size() == bytes) {
      std::vector<char> s = std::move(t_stack_pool[i]);
      t_stack_pool.erase(t_stack_pool.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return s;
    }
  }
  std::vector<char> s;
  s.resize(bytes);
  return s;
}

void release_stack(std::vector<char>&& s) {
  if (!s.empty() && t_stack_pool.size() < kMaxPooledStacks)
    t_stack_pool.push_back(std::move(s));
}
}  // namespace

Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>()), fn_(std::move(fn)) {
  impl_->stack = acquire_stack(stack_bytes);
#ifdef ADRIATIC_ASAN_FIBERS
  // A recycled stack may still carry the redzones of frames abandoned on it
  // by a fiber destroyed while suspended.
  __asan_unpoison_memory_region(impl_->stack.data(), impl_->stack.size());
#endif
  make_first_frame(impl_->ctx, impl_->stack, &Fiber::trampoline, this);
#ifdef ADRIATIC_TSAN_FIBERS
  impl_->tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // Destroying a live suspended fiber abandons its stack frame. That is the
  // normal fate of simulation processes still blocked when the simulation is
  // torn down; destructors of locals on the fiber stack do not run, exactly
  // as in the SystemC reference simulator. The stack itself is recycled.
#ifdef ADRIATIC_TSAN_FIBERS
  if (impl_->tsan_fiber != nullptr) __tsan_destroy_fiber(impl_->tsan_fiber);
#endif
#ifdef ADRIATIC_ASAN_FIBERS
  if (!finished_) impl_->keep_abandoned_frames_reachable();
#endif
  release_stack(std::move(impl_->stack));
}

void Fiber::trampoline(Fiber* self) {
  self->impl_->arrived();
  self->fn_();
  self->finished_ = true;
  // Return to the scheduler for the last time.
  self->impl_->leave(true);
  switch_context(self->impl_->ctx, self->impl_->return_ctx);
  assert(false && "a finished fiber was resumed");
}

void Fiber::resume() {
  if (finished_) return;
  assert(t_current == nullptr && "resume() must be called from the scheduler");
  t_current = this;
  impl_->enter();
  switch_context(impl_->return_ctx, impl_->ctx);
  impl_->returned();
  t_current = nullptr;
}

void Fiber::yield() {
  Fiber* self = t_current;
  assert(self != nullptr && "yield() must be called from inside a fiber");
  // t_current stays set: resume() clears it once the switch lands back in
  // the scheduler and sets it again before switching here.
  self->impl_->leave(false);
  switch_context(self->impl_->ctx, self->impl_->return_ctx);
  self->impl_->arrived();
}

bool Fiber::in_fiber() noexcept { return t_current != nullptr; }

}  // namespace adriatic::kern

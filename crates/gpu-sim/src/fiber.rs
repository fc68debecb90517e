//! Stackful coroutines: the stacks the warps of a deterministic run
//! execute on and the switch between them — about fifteen instructions,
//! no syscall. Every `unsafe` line of [`crate::sched`]'s engine is here or
//! a call into here. A fiber is made, run and retired on one OS thread:
//! nothing in this file is `Send` and idle stacks are pooled per thread,
//! so concurrent launchers share nothing.

use crate::sys::{mmap, mprotect, munmap, NO_ACCESS, PRIVATE_ANONYMOUS, READ_WRITE};
use std::arch::naked_asm;
use std::cell::{Cell, RefCell};
use std::ptr::null_mut;

#[cfg(not(all(target_arch = "x86_64", unix)))]
compile_error!(
    "gpu-sim switches warps in x86-64 System V assembly: port `fiber::switch` and `fiber::boot`"
);

/// Usable bytes of a fiber's stack. Mapped, not touched: a page is
/// resident only once a warp has run that deep.
const STACK_BYTES: usize = 256 * 1024;
/// The `PROT_NONE` page below a stack (x86-64's page size): running off
/// the end is a SIGSEGV, not a write into a neighbouring mapping.
const GUARD_BYTES: usize = 4096;
/// One mapping: the guard page, then the stack.
const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

/// The base of one mapping of [`MAP_BYTES`], owned.
struct Stack(*mut u8);

/// A fresh mapping, its guard page protected.
fn map_stack() -> Stack {
    // SAFETY: an anonymous private mapping at an address the kernel picks
    // aliases nothing; protecting its first page touches only it.
    let mapped = unsafe {
        let base = mmap(null_mut(), MAP_BYTES, READ_WRITE, PRIVATE_ANONYMOUS, -1, 0);
        (base as isize != -1 && mprotect(base, GUARD_BYTES, NO_ACCESS) == 0).then_some(base)
    };
    let failed = || panic!("map a warp stack: {}", std::io::Error::last_os_error());
    Stack(mapped.unwrap_or_else(failed))
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `self` owns the mapping, and whoever drops a `Stack`
        // (see `Fiber`) is done running on it.
        unsafe { munmap(self.0, MAP_BYTES) };
    }
}

thread_local! {
    /// This thread's idle stacks: grows to the widest (and most deeply
    /// nested) launch the thread has made, unmapped when it exits.
    static IDLE_STACKS: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// Save the running stack's callee-saved registers and stack pointer
/// (through `from`), adopt the stack pointer `to`, restore what was saved
/// there and return into it. The MXCSR and x87 control words are left
/// alone: both sides are one thread, and nothing here changes them.
///
/// # Safety
/// [`Fiber::switch`]'s contract: it is the only caller.
#[unsafe(naked)]
unsafe extern "C" fn switch(from: *mut *mut u8, to: *mut u8) {
    naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "ret",
    )
}

/// Where a fresh fiber's first [`switch`] returns to, with `entry` in
/// `r12` and `arg` in `r13` (see [`Fiber::boot`]): the outermost frame of
/// the stack, where a backtrace ends. `entry` must not return.
///
/// # Safety
/// Never called: only a frame laid out by [`Fiber::boot`] leads here.
#[unsafe(naked)]
unsafe extern "C" fn boot() {
    naked_asm!(".cfi_startproc; .cfi_undefined rip", "mov rdi, r13; call r12; ud2", ".cfi_endproc")
}

/// A stack and, while it is switched out, where it was left.
pub(crate) struct Fiber {
    /// The saved stack pointer; meaningless while the fiber runs.
    sp: Cell<*mut u8>,
    /// `None` for a stack that is not ours to pool (see `new`). A pooled
    /// stack is its fiber's from `new` to `drop`, running or not.
    stack: Option<Stack>,
}

impl Fiber {
    /// A fiber on one of this thread's idle stacks (or a fresh mapping), to
    /// be [booted](Fiber::boot) — or, not `pooled`, the stack the caller is
    /// running on: nothing to switch *to* until it has switched away.
    pub(crate) fn new(pooled: bool) -> Fiber {
        // `try_with` fails once this thread's `IDLE_STACKS` is destroyed.
        let idle = || IDLE_STACKS.try_with(|idle| idle.borrow_mut().pop()).ok().flatten();
        let stack = pooled.then(|| idle().unwrap_or_else(map_stack));
        Fiber { sp: Cell::new(null_mut()), stack }
    }

    /// Lay out this pooled, not yet running fiber's first frame: the
    /// first switch to it calls `entry(arg)` at the top of its stack.
    pub(crate) fn boot(&self, entry: unsafe extern "C" fn(*mut u8), arg: *mut u8) {
        let base = self.stack.as_ref().expect("only a pooled fiber boots").0;
        // Null since `new`, so nothing has run on the stack yet.
        assert!(self.sp.get().is_null(), "a fiber boots once");
        // What `switch` pops, lowest address first, then two zero words (a
        // null return address for whoever walks past `boot`). Nine words
        // below the page-aligned top put `rsp` at `top - 16` when `switch`
        // returns into `boot`, so its `call` leaves `rsp ≡ 8 (mod 16)` at
        // `entry`, as the ABI (and the first aligned SSE store) demands.
        let (r15, r14, r13, r12, rbx, rbp) = (0, 0, arg as usize, entry as usize, 0, 0);
        let frame = [r15, r14, r13, r12, rbx, rbp, boot as *const () as usize, 0, 0];
        // SAFETY: the frame lies in the top 72 bytes of a mapping this
        // fiber owns and has not run on (above): a stale frame of the
        // stack's last user is dead. The top is aligned for a `usize`.
        unsafe {
            let sp = base.add(MAP_BYTES).cast::<[usize; 9]>().sub(1);
            sp.write(frame);
            self.sp.set(sp.cast());
        }
    }

    /// Suspend the running stack into `self` and resume `to`; returns
    /// when something switches back to `self`.
    ///
    /// # Safety
    /// `self` must be the fiber whose stack this call runs on, `to` a
    /// booted or switched-out fiber of this thread that nothing else will
    /// resume first, and whatever `to` goes on to touch still alive.
    pub(crate) unsafe fn switch(&self, to: &Fiber) {
        // SAFETY: by the contract `to.sp` was written by `boot` or by a
        // `switch` away from `to`, so it heads the seven words this pops.
        unsafe { switch(self.sp.as_ptr(), to.sp.get()) }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // Back to the pool; unmapped instead if the pool is already gone.
        if let Some(stack) = self.stack.take() {
            let _ = IDLE_STACKS.try_with(|idle| idle.borrow_mut().push(stack));
        }
    }
}

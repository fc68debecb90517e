//! The libc calls that map, protect, inspect and advise host memory, declared once.

extern "C" {
    pub fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    pub fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    pub fn munmap(addr: *mut u8, len: usize) -> i32;
    pub fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    pub fn mincore(addr: *mut u8, len: usize, vec: *mut u8) -> i32;
}
// `PROT_NONE`, `PROT_READ | PROT_WRITE`, `MAP_PRIVATE | MAP_ANONYMOUS`; then Linux advice.
pub const NO_ACCESS: i32 = 0;
pub const READ_WRITE: i32 = 1 | 2;
pub const PRIVATE_ANONYMOUS: i32 = 2 | if cfg!(target_os = "linux") { 0x20 } else { 0x1000 };
pub const MADV_DONTNEED: i32 = 4;
pub const MADV_HUGEPAGE: i32 = 14;
pub const MADV_POPULATE_WRITE: i32 = 23;

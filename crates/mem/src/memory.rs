//! The simulated linear memory shared by both execution levels.
//!
//! Memory is a contiguous range starting above a null guard. Globals are
//! packed at the bottom (natural alignment, no guard gaps — mirroring a
//! real `.data` segment, so a slightly-corrupted address often lands in a
//! *different live object*, producing an SDC rather than a crash, exactly
//! as on real hardware). A single stack region sits above the globals.
//! Every access is checked against the live regions and produces a
//! [`Trap`] on failure.

use crate::digest::hash_bytes;
use crate::trap::Trap;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, OnceLock};

/// What a region holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// A module global.
    Global,
    /// The (single) downward-growing stack.
    Stack,
    /// Heap-style allocation (used by tests and future workloads).
    Heap,
}

/// A live address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First address of the region.
    pub start: u64,
    /// Size in bytes.
    pub size: u64,
    /// What the region holds.
    pub kind: RegionKind,
}

impl Region {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.start + self.size
    }

    /// True if `addr` lies inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }
}

/// Lowest valid address: everything below traps as (near-)null.
pub const NULL_GUARD: u64 = 0x1_0000;

/// Default simulated-memory capacity (64 MiB).
pub const DEFAULT_CAPACITY: u64 = 64 << 20;

/// Default stack size (1 MiB).
pub const DEFAULT_STACK_SIZE: u64 = 1 << 20;

/// The simulated memory.
///
/// One invariant makes restore and snapshot compares cost what actually
/// differs: a page whose bit is clear in `written` is byte-identical to
/// the same page of `base`, the page table of the snapshot this memory
/// was restored from (all zeros for a fresh memory, and past the end of
/// `base`). [`Memory::write_bytes`] is the only mutation path and sets
/// the bit; allocation only appends zeros.
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    /// Bitmap of [`SNAPSHOT_PAGE`]-sized pages of `data` written since
    /// this memory was created or restored (bit `i` covers page `i`).
    written: Vec<u64>,
    /// The page table this memory was restored from; `None` for a fresh
    /// memory, whose base is all zeros.
    base: Option<Arc<[Arc<[u8]>]>>,
    /// Pages the restore that built this memory copied (work counter).
    restore_pages_copied: u64,
    /// Pages hashed or byte-compared by the snapshot compares against
    /// this memory (work counter).
    pages_compared: Cell<u64>,
    /// The region table and its lookup index, shared with every snapshot
    /// of this memory and every memory restored from one.
    layout: Arc<Layout>,
    next: u64,
    capacity: u64,
}

/// Granularity of the access-check index: one entry per this many bytes
/// of address space above [`NULL_GUARD`].
const INDEX_GRAIN: u64 = SNAPSHOT_PAGE as u64;

/// Terminates [`Layout::runs`]: no address lies below its end without
/// also lying below its start, so a lookup stops there as unmapped. The
/// address `u64::MAX` lies past it and never reaches the run walk.
const SENTINEL_RUN: (u64, u64) = (u64::MAX, u64::MAX);

/// The allocated regions of a memory and an index that answers the access
/// check in constant time. Allocation is the only thing that changes it,
/// so memories and snapshots of one layout share it through an `Arc`.
#[derive(Debug, Clone)]
struct Layout {
    /// Sorted by start (allocation is monotonic).
    regions: Vec<Region>,
    stack: Option<Region>,
    /// Maximal runs `[start, end)` of back-to-back regions, then
    /// [`SENTINEL_RUN`]. An access may cross between adjacent regions, as
    /// on real paged hardware, so it is valid exactly when one run holds
    /// all of it.
    runs: Vec<(u64, u64)>,
    /// For each [`INDEX_GRAIN`]-sized granule from [`NULL_GUARD`] up to
    /// the end of the last run, the index of the first run ending past
    /// the granule's start.
    first_run: Vec<u32>,
}

impl Layout {
    fn new() -> Layout {
        Layout {
            regions: Vec::new(),
            stack: None,
            runs: vec![SENTINEL_RUN],
            first_run: Vec::new(),
        }
    }

    /// Appends a region that starts at or above the end of every other.
    /// Granules already indexed keep their entry: the runs before their
    /// first run are unchanged, and that run can only have grown.
    fn push(&mut self, region: Region) {
        if region.kind == RegionKind::Stack {
            self.stack = Some(region);
        }
        self.regions.push(region);
        self.runs.pop();
        match self.runs.last_mut() {
            Some(last) if last.1 == region.start => last.1 = region.end(),
            _ => self.runs.push((region.start, region.end())),
        }
        let run = u32::try_from(self.runs.len() - 1).expect("fewer than 2^32 runs");
        let granules = (region.end() - NULL_GUARD).div_ceil(INDEX_GRAIN);
        self.first_run.resize(
            usize::try_from(granules).expect("index fits the address space"),
            run,
        );
        self.runs.push(SENTINEL_RUN);
    }
}

/// Buffers smaller than this are not worth pooling.
const POOL_MIN_LEN: usize = 64 * 1024;

/// Per-thread cap on retained buffers.
const POOL_MAX_ENTRIES: usize = 4;

thread_local! {
    /// Recycled backing buffers. Invariant: every byte of `buf[..len]` is
    /// zero except possibly inside pages whose bit is set in the paired
    /// scrub bitmap (which always covers the full length).
    static BUF_POOL: RefCell<Vec<(Vec<u8>, Vec<u64>)>> = const { RefCell::new(Vec::new()) };
}

/// Number of bitmap words needed to cover `len` bytes of pages.
fn page_words(len: usize) -> usize {
    len.div_ceil(SNAPSHOT_PAGE).div_ceil(64)
}

/// Fetches a recycled all-zero buffer of exactly `new_len` bytes, or
/// allocates a fresh zeroed one. Pooled buffers are scrubbed lazily here:
/// only the pages their previous owner may have left non-zero (clipped to
/// the reused prefix) are re-zeroed. Matching is by capacity, not length,
/// so the two substrates' slightly different memory layouts (the machine
/// maps an extra guard gap) recycle each other's buffers: a shorter
/// buffer is zero-extended, which only memsets the small length delta.
fn acquire_zeroed(new_len: usize) -> Vec<u8> {
    let pooled = BUF_POOL.with(|p| {
        let mut p = p.borrow_mut();
        let pos = p.iter().position(|(b, _)| b.capacity() >= new_len)?;
        Some(p.swap_remove(pos))
    });
    let Some((mut buf, scrub)) = pooled else {
        return vec![0u8; new_len];
    };
    let reused = buf.len().min(new_len);
    for (w, &bits) in scrub.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            let page = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let start = page * SNAPSHOT_PAGE;
            if start >= reused {
                break;
            }
            let end = (start + SNAPSHOT_PAGE).min(reused);
            buf[start..end].fill(0);
        }
    }
    buf.resize(new_len, 0);
    buf
}

impl Drop for Memory {
    fn drop(&mut self) {
        if self.data.capacity() < POOL_MIN_LEN {
            return;
        }
        let buf = std::mem::take(&mut self.data);
        // Non-zero bytes can only sit in written pages and in the pages a
        // restore copied in from a non-zero base page.
        let mut scrub = std::mem::take(&mut self.written);
        if let Some(base) = &self.base {
            let zero = &zero_page().0;
            for (i, page) in base.iter().enumerate() {
                if !Arc::ptr_eq(page, zero) {
                    scrub[i / 64] |= 1 << (i % 64);
                }
            }
        }
        BUF_POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < POOL_MAX_ENTRIES {
                p.push((buf, scrub));
            }
        });
    }
}

impl Memory {
    /// Creates an empty memory with the default capacity.
    pub fn new() -> Memory {
        Memory::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty memory with a custom capacity in bytes.
    pub fn with_capacity(capacity: u64) -> Memory {
        Memory {
            data: Vec::new(),
            written: Vec::new(),
            base: None,
            restore_pages_copied: 0,
            pages_compared: Cell::new(0),
            layout: Arc::new(Layout::new()),
            next: NULL_GUARD,
            capacity,
        }
    }

    /// Marks the pages covering `[off, off+len)` as written.
    #[inline]
    fn mark_written(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let p0 = off / SNAPSHOT_PAGE;
        let p1 = (off + len - 1) / SNAPSHOT_PAGE;
        for p in p0..=p1 {
            self.written[p / 64] |= 1 << (p % 64);
        }
    }

    /// Pages the restore that built this memory copied out of its
    /// snapshot: the snapshot's non-zero pages (0 for a fresh memory).
    pub fn restore_pages_copied(&self) -> u64 {
        self.restore_pages_copied
    }

    /// Pages the snapshot compares against this memory have hashed or
    /// byte-compared so far ([`Memory::matches_snapshot_hashes`],
    /// [`Memory::equals_snapshot`], [`Memory::diverged_pages`],
    /// [`Memory::diverged_pages_exact`]). Pages the `written`/`base`
    /// invariant proves equal are skipped and not counted.
    pub fn pages_compared(&self) -> u64 {
        self.pages_compared.get()
    }

    /// Allocates a zero-filled region of `size` bytes aligned to `align`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfMemory`] if the capacity would be exceeded.
    pub fn alloc(&mut self, size: u64, align: u64, kind: RegionKind) -> Result<u64, Trap> {
        let align = align.max(1);
        let start = self.next.div_ceil(align) * align;
        let end = start.checked_add(size.max(1)).ok_or(Trap::OutOfMemory)?;
        if end - NULL_GUARD > self.capacity {
            return Err(Trap::OutOfMemory);
        }
        grow_zeroed(
            &mut self.data,
            &mut self.written,
            (end - NULL_GUARD) as usize,
        );
        Arc::make_mut(&mut self.layout).push(Region {
            start,
            size: size.max(1),
            kind,
        });
        self.next = end;
        Ok(start)
    }

    /// Reserves `size` bytes of *unmapped* guard space: the cursor advances
    /// but no region is recorded, so any access in the gap traps as
    /// [`Trap::Unmapped`]. Used to put a guard page between the globals and
    /// the stack (stack underflow then faults instead of silently
    /// corrupting globals).
    pub fn reserve_guard(&mut self, size: u64) {
        // Saturating: an absurd guard size must not wrap the cursor back
        // into mapped space or push it past the capacity end — either way
        // the next alloc must see an exhausted arena, not corrupt state.
        let cap_end = NULL_GUARD.saturating_add(self.capacity);
        self.next = self.next.saturating_add(size).min(cap_end);
    }

    /// Allocates the stack region (call once). Returns its *top* address
    /// (one past the end, where a downward-growing stack pointer starts).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfMemory`] if the capacity would be exceeded.
    pub fn alloc_stack(&mut self, size: u64) -> Result<u64, Trap> {
        let start = self.alloc(size, 16, RegionKind::Stack)?;
        Ok(start + size)
    }

    /// The stack region, if allocated.
    pub fn stack(&self) -> Option<Region> {
        self.layout.stack
    }

    /// All live regions, ordered by start address.
    pub fn regions(&self) -> &[Region] {
        &self.layout.regions
    }

    /// Total bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.next - NULL_GUARD
    }

    /// Checks that `[addr, addr+size)` is a valid access.
    ///
    /// # Errors
    ///
    /// * [`Trap::NullDeref`] below the null guard,
    /// * [`Trap::Unmapped`] if no region contains `addr`,
    /// * [`Trap::OutOfBounds`] if the access crosses the region end into
    ///   unmapped space (crossing into an *adjacent mapped region* is
    ///   allowed, as on real paged hardware).
    #[inline]
    pub fn check(&self, addr: u64, size: u64) -> Result<(), Trap> {
        let layout = &*self.layout;
        // Below the null guard the subtraction wraps past every granule.
        let granule = addr.wrapping_sub(NULL_GUARD) / INDEX_GRAIN;
        if let Some(&first) = layout.first_run.get(granule as usize) {
            let mut i = first as usize;
            loop {
                let (start, end) = layout.runs[i];
                if addr < end {
                    if addr >= start && size <= end - addr {
                        return Ok(());
                    }
                    break;
                }
                i += 1;
            }
        }
        Err(self.trap_at(addr))
    }

    /// The trap a failed [`Memory::check`] of an access at `addr` raises.
    #[cold]
    #[inline(never)]
    fn trap_at(&self, addr: u64) -> Trap {
        if addr < NULL_GUARD {
            return Trap::NullDeref { addr };
        }
        // The first run ending past `addr`; there is none for an address
        // at or above the sentinel's end, which no run can hold.
        let runs = &self.layout.runs;
        match runs.get(runs.partition_point(|r| r.1 <= addr)) {
            Some(&(start, _)) if addr >= start => Trap::OutOfBounds { addr },
            _ => Trap::Unmapped { addr },
        }
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check`] failures.
    #[inline]
    pub fn read_bytes(&self, addr: u64, len: u64) -> Result<&[u8], Trap> {
        self.check(addr, len)?;
        let off = (addr - NULL_GUARD) as usize;
        Ok(&self.data[off..off + len as usize])
    }

    /// Writes `bytes` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check`] failures.
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        self.check(addr, bytes.len() as u64)?;
        let off = (addr - NULL_GUARD) as usize;
        self.mark_written(off, bytes.len());
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads a little-endian unsigned integer of `size` ∈ {1,2,4,8} bytes.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check`] failures.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4, or 8.
    #[inline]
    pub fn read_uint(&self, addr: u64, size: u64) -> Result<u64, Trap> {
        let b = self.read_bytes(addr, size)?;
        Ok(match size {
            1 => u64::from(b[0]),
            2 => u64::from(u16::from_le_bytes([b[0], b[1]])),
            4 => u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            8 => u64::from_le_bytes(b.try_into().expect("8 bytes")),
            _ => panic!("unsupported access size {size}"),
        })
    }

    /// Writes the low `size` bytes of `val` little-endian.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check`] failures.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4, or 8.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, val: u64, size: u64) -> Result<(), Trap> {
        let bytes = val.to_le_bytes();
        match size {
            1 | 2 | 4 | 8 => self.write_bytes(addr, &bytes[..size as usize]),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Reads an `f64`.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check`] failures.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> Result<f64, Trap> {
        Ok(f64::from_bits(self.read_uint(addr, 8)?))
    }

    /// Writes an `f64`.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check`] failures.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), Trap> {
        self.write_uint(addr, v.to_bits(), 8)
    }

    /// Reads an `f32`.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check`] failures.
    #[inline]
    pub fn read_f32(&self, addr: u64) -> Result<f32, Trap> {
        Ok(f32::from_bits(self.read_uint(addr, 4)? as u32))
    }

    /// Writes an `f32`.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::check`] failures.
    #[inline]
    pub fn write_f32(&mut self, addr: u64, v: f32) -> Result<(), Trap> {
        self.write_uint(addr, u64::from(v.to_bits()), 4)
    }
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

/// Zero-extends `data` to `new_len` bytes, keeping `written` covering it.
///
/// Large growth steps (the 1 MiB stack region, mapped once per
/// interpreter) swap in an all-zero buffer from the thread-local recycling
/// pool ([`acquire_zeroed`]) with the live prefix copied over — the
/// prefix bytes land at their old offsets, so the existing written marks
/// remain accurate and no fresh marks are needed. Small steps (packed
/// globals) memset in place, where swapping buffers would cost more than
/// it saves. Appended zeros write nothing: past the end of the base they
/// match its all-zero extension, and a partial last base page that grows
/// no longer has the base page's length, which the compares check.
fn grow_zeroed(data: &mut Vec<u8>, written: &mut Vec<u64>, new_len: usize) {
    const FRESH_ALLOC_MIN_GROWTH: usize = 64 * 1024;
    if new_len <= data.len() {
        return;
    }
    if new_len - data.len() >= FRESH_ALLOC_MIN_GROWTH {
        let mut fresh = acquire_zeroed(new_len);
        fresh[..data.len()].copy_from_slice(data);
        *data = fresh;
    } else {
        data.resize(new_len, 0);
    }
    if written.len() < page_words(new_len) {
        written.resize(page_words(new_len), 0);
    }
}

/// Granularity of snapshot page sharing (bytes).
pub const SNAPSHOT_PAGE: usize = 4096;

/// The one all-zero page every snapshot stores its all-zero full pages
/// as, with its hash.
fn zero_page() -> &'static (Arc<[u8]>, u64) {
    static ZERO: OnceLock<(Arc<[u8]>, u64)> = OnceLock::new();
    ZERO.get_or_init(|| {
        let page: Arc<[u8]> = Arc::from(vec![0u8; SNAPSHOT_PAGE]);
        let hash = hash_bytes(&page);
        (page, hash)
    })
}

/// True when every byte is zero. Scans in 64-byte blocks the compiler
/// vectorizes, exiting at the first non-zero block.
fn is_zero(bytes: &[u8]) -> bool {
    bytes
        .chunks(64)
        .all(|block| block.iter().fold(0u8, |acc, &b| acc | b) == 0)
}

/// An immutable point-in-time copy of a [`Memory`], cheap to keep in
/// series.
///
/// Checkpointed fast-forward execution captures one snapshot every K
/// dynamic steps of the golden run, so consecutive snapshots are mostly
/// identical. Rather than storing a full byte image per snapshot, the
/// mapped bytes are chunked into [`SNAPSHOT_PAGE`]-sized pages and each
/// page that is byte-identical to the corresponding page of the previous
/// snapshot shares its allocation (`Arc`) instead of copying — a
/// comparison-based copy-on-write that needs no write interception in the
/// hot execution loop. A long-running program that touches only its stack
/// and a few globals between checkpoints pays for just those dirty pages.
/// Every all-zero full page is one shared zero page, so the untouched
/// stack costs nothing to keep and nothing to restore.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    /// The page table, shared with every memory restored from it (their
    /// `base`) for the cost of one reference count.
    pages: Arc<[Arc<[u8]>]>,
    page_hashes: Vec<u64>,
    len: usize,
    layout: Arc<Layout>,
    next: u64,
    capacity: u64,
}

impl MemSnapshot {
    /// Total mapped bytes captured.
    pub fn mapped_len(&self) -> usize {
        self.len
    }

    /// Number of pages in the snapshot.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Per-page content hashes, parallel to the page vector. Used by
    /// convergence detection as the cheap first-stage comparison against a
    /// live memory ([`Memory::matches_snapshot_hashes`]).
    pub fn page_hashes(&self) -> &[u64] {
        &self.page_hashes
    }

    /// Number of pages physically shared (same allocation) with `other`.
    pub fn shared_pages_with(&self, other: &MemSnapshot) -> usize {
        self.pages
            .iter()
            .zip(other.pages.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Incremental-capture cost of this snapshot relative to the one it
    /// was taken against: `(reused, hashed)` page counts, where reused
    /// pages kept `prev`'s allocation (and its hash, skipping a rehash)
    /// and the remaining `hashed` pages were copied and rehashed. With no
    /// predecessor every page was hashed.
    pub fn page_reuse_from(&self, prev: Option<&MemSnapshot>) -> (usize, usize) {
        let reused = prev.map_or(0, |p| self.shared_pages_with(p));
        (reused, self.page_count() - reused)
    }
}

impl Memory {
    /// Captures a snapshot of the current state.
    ///
    /// Pass the previous snapshot in the series (if any) so unchanged
    /// pages are shared instead of copied.
    pub fn snapshot(&self, prev: Option<&MemSnapshot>) -> MemSnapshot {
        let (zero, zero_hash) = zero_page();
        let page_count = self.data.len().div_ceil(SNAPSHOT_PAGE);
        let mut pages = Vec::with_capacity(page_count);
        let mut page_hashes = Vec::with_capacity(page_count);
        for (i, chunk) in self.data.chunks(SNAPSHOT_PAGE).enumerate() {
            let shared = prev
                .and_then(|p| p.pages.get(i))
                .filter(|page| page.as_ref() == chunk);
            if let Some(page) = shared {
                // The byte-compare above proved the page clean, so the
                // previous snapshot's digest is still valid — reuse it
                // instead of rehashing 4 KiB.
                pages.push(Arc::clone(page));
                page_hashes.push(prev.expect("shared implies prev").page_hashes[i]);
            } else if chunk.len() == SNAPSHOT_PAGE && is_zero(chunk) {
                pages.push(Arc::clone(zero));
                page_hashes.push(*zero_hash);
            } else {
                pages.push(Arc::from(chunk));
                page_hashes.push(hash_bytes(chunk));
            }
        }
        MemSnapshot {
            pages: Arc::from(pages),
            page_hashes,
            len: self.data.len(),
            layout: Arc::clone(&self.layout),
            next: self.next,
            capacity: self.capacity,
        }
    }

    /// Reconstructs a memory identical to the one `snap` was captured
    /// from (byte-for-byte, including region table and allocation cursor).
    ///
    /// The buffer comes zeroed from the thread-local pool, so only the
    /// snapshot's non-zero pages are copied; the snapshot's page table
    /// becomes the new memory's base, with no page written yet.
    pub fn from_snapshot(snap: &MemSnapshot) -> Memory {
        let mut data = acquire_zeroed(snap.len);
        let zero = &zero_page().0;
        let mut copied = 0;
        for (i, page) in snap.pages.iter().enumerate() {
            if !Arc::ptr_eq(page, zero) {
                let off = i * SNAPSHOT_PAGE;
                data[off..off + page.len()].copy_from_slice(page);
                copied += 1;
            }
        }
        Memory {
            written: vec![0; page_words(data.len())],
            data,
            base: Some(Arc::clone(&snap.pages)),
            restore_pages_copied: copied,
            pages_compared: Cell::new(0),
            layout: Arc::clone(&snap.layout),
            next: snap.next,
            capacity: snap.capacity,
        }
    }

    /// True when live page `i` (`chunk`) is provably byte-identical to
    /// `target` without reading it: the page is unwritten, so it equals
    /// its base page, and that base page is `target`'s own allocation —
    /// or, past the end of the base, `target` is the zero page. Equal
    /// lengths are required too, because a partial last base page that
    /// grew no longer matches it.
    #[inline]
    fn page_known_equal(&self, i: usize, chunk: &[u8], target: &Arc<[u8]>) -> bool {
        if self.written[i / 64] & (1 << (i % 64)) != 0 || chunk.len() != target.len() {
            return false;
        }
        match self.base.as_deref().and_then(|b| b.get(i)) {
            Some(base) => Arc::ptr_eq(base, target),
            None => Arc::ptr_eq(target, &zero_page().0),
        }
    }

    /// Runs `test` on every common page the `written`/`base` invariant
    /// cannot prove equal to `snap`'s, in page order, until `test`
    /// returns `false`; counts the pages tested into `pages_compared`.
    /// Returns whether every tested page passed. Skipped pages are
    /// byte-identical to the snapshot's, so they would have passed any
    /// byte or hash test: callers see exactly the full-scan result.
    fn all_pages(&self, snap: &MemSnapshot, mut test: impl FnMut(usize, &[u8]) -> bool) -> bool {
        let mut compared = 0;
        let mut ok = true;
        for (i, (chunk, page)) in self
            .data
            .chunks(SNAPSHOT_PAGE)
            .zip(snap.pages.iter())
            .enumerate()
        {
            if self.page_known_equal(i, chunk, page) {
                continue;
            }
            compared += 1;
            if !test(i, chunk) {
                ok = false;
                break;
            }
        }
        self.pages_compared
            .set(self.pages_compared.get() + compared);
        ok
    }

    /// Cheap first-stage convergence check: true if this memory's layout
    /// matches `snap` and every 4 KiB page hashes to the captured digest.
    ///
    /// A `true` here is *necessary but not sufficient* for equality (hash
    /// collisions exist); callers must confirm with [`Memory::equals_snapshot`]
    /// before acting on a match. A `false` is definitive.
    pub fn matches_snapshot_hashes(&self, snap: &MemSnapshot) -> bool {
        self.layout_matches_snapshot(snap)
            && self.all_pages(snap, |i, chunk| hash_bytes(chunk) == snap.page_hashes[i])
    }

    /// Exact second-stage convergence check: full byte comparison of the
    /// mapped range plus the allocation metadata. This is what rules out
    /// hash collisions after [`Memory::matches_snapshot_hashes`] passes.
    pub fn equals_snapshot(&self, snap: &MemSnapshot) -> bool {
        self.layout_matches_snapshot(snap)
            && self.all_pages(snap, |i, chunk| chunk == snap.pages[i].as_ref())
    }

    /// True when the allocation metadata (mapped length, cursor, region
    /// table, stack mapping) matches `snap`. Page *contents* are covered
    /// separately by [`Memory::diverged_pages`].
    pub fn layout_matches_snapshot(&self, snap: &MemSnapshot) -> bool {
        self.data.len() == snap.len
            && self.next == snap.next
            && (Arc::ptr_eq(&self.layout, &snap.layout)
                || (self.layout.stack == snap.layout.stack
                    && self.layout.regions == snap.layout.regions))
    }

    /// Counts the 4 KiB pages whose content provably differs from `snap`:
    /// every page whose live hash disagrees with the captured page hash,
    /// plus every page mapped on only one side. Hash inequality is proof
    /// of byte inequality (both sides hash with [`hash_bytes`]); a page
    /// the hash calls clean *may* still differ (collision), so a zero
    /// result is confirmed with [`Memory::diverged_pages_exact`] by
    /// callers for whom "no divergence" is load-bearing. The final page
    /// is a partial chunk whenever the mapped length is not page-aligned;
    /// [`hash_bytes`] folds the length in, so partial pages compare just
    /// like full ones.
    pub fn diverged_pages(&self, snap: &MemSnapshot) -> u32 {
        self.count_diverged(snap, |i, chunk| hash_bytes(chunk) != snap.page_hashes[i])
    }

    /// Byte-exact variant of [`Memory::diverged_pages`]: immune to hash
    /// collisions, used to confirm an apparently-clean hash diff.
    pub fn diverged_pages_exact(&self, snap: &MemSnapshot) -> u32 {
        self.count_diverged(snap, |i, chunk| chunk != snap.pages[i].as_ref())
    }

    fn count_diverged(&self, snap: &MemSnapshot, differs: impl Fn(usize, &[u8]) -> bool) -> u32 {
        let mut n = 0u32;
        // When the mapped lengths differ, the last common page may be
        // partial on one side only; the hash/byte compare still flags it
        // because the chunk length is part of both comparisons.
        self.all_pages(snap, |i, chunk| {
            n += u32::from(differs(i, chunk));
            true
        });
        // Pages mapped on only one side are all diverged.
        let live_pages = self.data.len().div_ceil(SNAPSHOT_PAGE);
        n + live_pages.abs_diff(snap.pages.len()) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diverged_pages_covers_the_final_partial_page() {
        let mut m = Memory::new();
        // Map a region ending mid-page so the last snapshot chunk is
        // partial — the historical blind spot for page-granular diffs.
        let a = m
            .alloc(SNAPSHOT_PAGE as u64 + 100, 8, RegionKind::Global)
            .unwrap();
        assert_ne!(m.data.len() % SNAPSHOT_PAGE, 0, "layout must end mid-page");
        let snap = m.snapshot(None);
        assert_eq!(m.diverged_pages(&snap), 0);
        assert_eq!(m.diverged_pages_exact(&snap), 0);
        // Flip a byte that lives in the trailing partial page.
        let tail = a + SNAPSHOT_PAGE as u64 + 90;
        assert_eq!(
            (tail - NULL_GUARD) as usize / SNAPSHOT_PAGE,
            (m.data.len() - 1) / SNAPSHOT_PAGE,
            "target byte must land in the final partial page"
        );
        m.write_uint(tail, 0xAB, 1).unwrap();
        assert_eq!(m.diverged_pages(&snap), 1);
        assert_eq!(m.diverged_pages_exact(&snap), 1);
        assert!(!m.matches_snapshot_hashes(&snap));
        assert!(m.layout_matches_snapshot(&snap));
        // Revert to identical bytes: the hash must re-match, not stay
        // stuck on the historical divergence.
        m.write_uint(tail, 0, 1).unwrap();
        assert_eq!(m.diverged_pages(&snap), 0);
        assert_eq!(m.diverged_pages_exact(&snap), 0);
        assert!(m.matches_snapshot_hashes(&snap));
        assert!(m.equals_snapshot(&snap));
    }

    #[test]
    fn pages_mapped_on_one_side_count_as_diverged() {
        let mut m = Memory::new();
        m.alloc(100, 8, RegionKind::Global).unwrap();
        let snap = m.snapshot(None);
        let before = m.data.len().div_ceil(SNAPSHOT_PAGE);
        m.alloc(3 * SNAPSHOT_PAGE as u64, 8, RegionKind::Global)
            .unwrap();
        let after = m.data.len().div_ceil(SNAPSHOT_PAGE);
        assert!(after > before, "allocation must map new pages");
        assert!(m.diverged_pages(&snap) >= (after - before) as u32);
        assert!(m.diverged_pages_exact(&snap) >= (after - before) as u32);
        assert!(!m.layout_matches_snapshot(&snap));
    }

    #[test]
    fn alloc_and_rw_roundtrip() {
        let mut m = Memory::new();
        let a = m.alloc(16, 8, RegionKind::Global).unwrap();
        assert_eq!(a % 8, 0);
        m.write_uint(a, 0xdead_beef_cafe_f00d, 8).unwrap();
        assert_eq!(m.read_uint(a, 8).unwrap(), 0xdead_beef_cafe_f00d);
        m.write_f64(a + 8, 2.5).unwrap();
        assert_eq!(m.read_f64(a + 8).unwrap(), 2.5);
    }

    #[test]
    fn zero_initialized() {
        let mut m = Memory::new();
        let a = m.alloc(64, 8, RegionKind::Global).unwrap();
        assert_eq!(m.read_uint(a + 32, 8).unwrap(), 0);
    }

    #[test]
    fn null_guard_traps() {
        let m = Memory::new();
        assert_eq!(m.check(0, 8), Err(Trap::NullDeref { addr: 0 }));
        assert_eq!(m.check(8, 1), Err(Trap::NullDeref { addr: 8 }));
    }

    #[test]
    fn unmapped_traps() {
        let mut m = Memory::new();
        let a = m.alloc(16, 8, RegionKind::Global).unwrap();
        let far = a + 0x100_0000;
        assert_eq!(m.check(far, 1), Err(Trap::Unmapped { addr: far }));
    }

    #[test]
    fn adjacent_regions_do_not_trap() {
        // Two back-to-back 8-byte globals: a read crossing the boundary is
        // allowed, as both bytes ranges are mapped.
        let mut m = Memory::new();
        let a = m.alloc(8, 8, RegionKind::Global).unwrap();
        let b = m.alloc(8, 8, RegionKind::Global).unwrap();
        assert_eq!(b, a + 8);
        m.check(a + 4, 8).expect("straddles into mapped region");
    }

    #[test]
    fn oob_past_last_region_traps() {
        let mut m = Memory::new();
        let a = m.alloc(8, 8, RegionKind::Global).unwrap();
        assert_eq!(m.check(a + 4, 8), Err(Trap::OutOfBounds { addr: a + 4 }));
    }

    #[test]
    fn capacity_exhaustion() {
        let mut m = Memory::with_capacity(1024);
        assert!(m.alloc(512, 8, RegionKind::Global).is_ok());
        assert_eq!(m.alloc(4096, 8, RegionKind::Global), Err(Trap::OutOfMemory));
    }

    #[test]
    fn stack_top() {
        let mut m = Memory::new();
        let top = m.alloc_stack(4096).unwrap();
        let st = m.stack().unwrap();
        assert_eq!(top, st.end());
        assert_eq!(st.size, 4096);
        m.check(top - 8, 8).expect("top word usable");
        assert!(m.check(top, 8).is_err());
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let mut m = Memory::new();
        let a = m
            .alloc(SNAPSHOT_PAGE as u64 * 3, 8, RegionKind::Global)
            .unwrap();
        let top = m.alloc_stack(SNAPSHOT_PAGE as u64 * 2).unwrap();
        m.write_uint(a + 17, 0xfeed, 8).unwrap();
        m.write_uint(top - 8, 0xdead, 8).unwrap();
        let snap = m.snapshot(None);
        let back = Memory::from_snapshot(&snap);
        assert_eq!(back.read_uint(a + 17, 8).unwrap(), 0xfeed);
        assert_eq!(back.read_uint(top - 8, 8).unwrap(), 0xdead);
        assert_eq!(back.mapped_bytes(), m.mapped_bytes());
        assert_eq!(back.regions(), m.regions());
        assert_eq!(back.stack(), m.stack());
        // Restored memory allocates at the same cursor.
        let x = m.alloc(8, 8, RegionKind::Heap).unwrap();
        let y = Memory::from_snapshot(&snap)
            .alloc(8, 8, RegionKind::Heap)
            .unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn snapshot_shares_clean_pages() {
        let mut m = Memory::new();
        let a = m
            .alloc(SNAPSHOT_PAGE as u64 * 8, 8, RegionKind::Global)
            .unwrap();
        let first = m.snapshot(None);
        // Dirty exactly one page, then snapshot against the previous one.
        m.write_uint(a + 2 * SNAPSHOT_PAGE as u64 + 40, 1, 8)
            .unwrap();
        let second = m.snapshot(Some(&first));
        assert_eq!(second.page_count(), first.page_count());
        assert_eq!(
            second.shared_pages_with(&first),
            first.page_count() - 1,
            "only the dirtied page is copied"
        );
        // Both snapshots still restore correctly.
        assert_eq!(
            Memory::from_snapshot(&first)
                .read_uint(a + 2 * SNAPSHOT_PAGE as u64 + 40, 8)
                .unwrap(),
            0
        );
        assert_eq!(
            Memory::from_snapshot(&second)
                .read_uint(a + 2 * SNAPSHOT_PAGE as u64 + 40, 8)
                .unwrap(),
            1
        );
    }

    #[test]
    fn snapshot_handles_partial_trailing_page() {
        let mut m = Memory::new();
        let a = m.alloc(100, 8, RegionKind::Global).unwrap();
        m.write_uint(a + 92, 7, 8).unwrap();
        let snap = m.snapshot(None);
        assert_eq!(snap.mapped_len() as u64, m.mapped_bytes());
        let back = Memory::from_snapshot(&snap);
        assert_eq!(back.read_uint(a + 92, 8).unwrap(), 7);
    }

    #[test]
    fn reserve_guard_saturates_instead_of_overflowing() {
        let mut m = Memory::with_capacity(1024);
        m.alloc(128, 8, RegionKind::Global).unwrap();
        // A guard so large the old `+=` would wrap u64; the cursor must
        // clamp to the capacity end and the next alloc must fail cleanly.
        m.reserve_guard(u64::MAX);
        assert_eq!(m.alloc(8, 8, RegionKind::Global), Err(Trap::OutOfMemory));
        m.reserve_guard(u64::MAX); // idempotent at the clamp
        assert_eq!(m.alloc(8, 8, RegionKind::Heap), Err(Trap::OutOfMemory));
    }

    #[test]
    fn reserve_guard_normal_gap_still_traps_as_unmapped() {
        let mut m = Memory::new();
        let a = m.alloc(16, 8, RegionKind::Global).unwrap();
        m.reserve_guard(4096);
        let b = m.alloc(16, 8, RegionKind::Global).unwrap();
        assert!(b >= a + 16 + 4096);
        let gap = a + 16 + 100;
        assert_eq!(m.check(gap, 1), Err(Trap::Unmapped { addr: gap }));
    }

    #[test]
    fn snapshot_reuses_clean_page_hashes() {
        let mut m = Memory::new();
        let a = m
            .alloc(SNAPSHOT_PAGE as u64 * 8, 8, RegionKind::Global)
            .unwrap();
        m.write_uint(a + 7 * SNAPSHOT_PAGE as u64, 0xaaaa, 8)
            .unwrap();
        let first = m.snapshot(None);
        m.write_uint(a + 2 * SNAPSHOT_PAGE as u64 + 40, 1, 8)
            .unwrap();
        let second = m.snapshot(Some(&first));
        assert_eq!(second.page_hashes().len(), second.page_count());
        // Clean pages carry the identical digest; the dirty page differs.
        for i in 0..first.page_count() {
            if i == 2 {
                assert_ne!(second.page_hashes()[i], first.page_hashes()[i]);
            } else {
                assert_eq!(second.page_hashes()[i], first.page_hashes()[i]);
            }
        }
    }

    #[test]
    fn convergence_checks_match_only_identical_state() {
        let mut m = Memory::new();
        let a = m
            .alloc(SNAPSHOT_PAGE as u64 * 3, 8, RegionKind::Global)
            .unwrap();
        m.write_uint(a + 100, 0xbeef, 8).unwrap();
        let snap = m.snapshot(None);
        assert!(m.matches_snapshot_hashes(&snap));
        assert!(m.equals_snapshot(&snap));

        // A restored copy matches too.
        let back = Memory::from_snapshot(&snap);
        assert!(back.matches_snapshot_hashes(&snap));
        assert!(back.equals_snapshot(&snap));

        // Corrupt one byte: both stages reject.
        m.write_uint(a + 2 * SNAPSHOT_PAGE as u64, 1, 1).unwrap();
        assert!(!m.matches_snapshot_hashes(&snap));
        assert!(!m.equals_snapshot(&snap));

        // Overwrite it back to the captured value: both stages match again
        // (this is exactly the convergence scenario).
        m.write_uint(a + 2 * SNAPSHOT_PAGE as u64, 0, 1).unwrap();
        assert!(m.matches_snapshot_hashes(&snap));
        assert!(m.equals_snapshot(&snap));

        // Different layout (extra region) rejects even with same bytes.
        let mut grown = Memory::from_snapshot(&snap);
        grown.alloc(8, 8, RegionKind::Heap).unwrap();
        assert!(!grown.matches_snapshot_hashes(&snap));
        assert!(!grown.equals_snapshot(&snap));
    }

    /// Fills every mapped byte with `byte`.
    fn scribble(m: &mut Memory, byte: u8) {
        for r in m.regions().to_vec() {
            m.write_bytes(r.start, &vec![byte; r.size as usize])
                .unwrap();
        }
    }

    #[test]
    fn restore_into_a_dirtied_pool_buffer_reproduces_the_snapshot() {
        // Globals ending mid-page, a guard gap, and a poolable stack whose
        // end leaves the last page partial.
        let layout = || {
            let mut m = Memory::new();
            m.alloc(3 * SNAPSHOT_PAGE as u64 + 100, 8, RegionKind::Global)
                .unwrap();
            m.reserve_guard(SNAPSHOT_PAGE as u64);
            m.alloc_stack(32 * SNAPSHOT_PAGE as u64 + 40).unwrap();
            m
        };
        let mut golden = layout();
        let len = golden.data.len();
        assert_ne!(len % SNAPSHOT_PAGE, 0, "last page must be partial");
        let g = golden.regions()[0].start;
        golden.write_uint(g + 8, 0x1234, 8).unwrap();
        let top = golden.stack().unwrap().end();
        golden.write_uint(top - 8, 0xfeed, 8).unwrap();
        let snap = golden.snapshot(None);
        // Non-zero pages: the written global page, and the partial last
        // page, which holds the stack top.
        assert_eq!(
            (top - 8 - NULL_GUARD) as usize / SNAPSHOT_PAGE,
            (len - 1) / SNAPSHOT_PAGE
        );

        // An earlier run with another layout leaves every byte of a larger
        // buffer non-zero, guard gap included, and returns it to the pool.
        {
            let mut other = Memory::new();
            other
                .alloc(len as u64 + 5 * SNAPSHOT_PAGE as u64, 8, RegionKind::Global)
                .unwrap();
            scribble(&mut other, 0xAA);
        }
        let back = Memory::from_snapshot(&snap);
        assert_eq!(back.data, golden.data, "restore over written pages");
        assert_eq!(back.restore_pages_copied(), 2);
        assert!(back.equals_snapshot(&snap));

        // Dropped unwritten, the restored memory still leaves its copied
        // base pages behind: the next user must see them scrubbed.
        drop(back);
        let fresh = layout();
        assert!(fresh.data.iter().all(|&b| b == 0), "base pages scrubbed");
        drop(fresh);

        // Written after restore, then restored again and grown.
        let mut dirty = Memory::from_snapshot(&snap);
        scribble(&mut dirty, 0x55);
        drop(dirty);
        let mut grown = Memory::from_snapshot(&snap);
        assert_eq!(grown.data, golden.data, "restore over written pages");
        grown
            .alloc(2 * SNAPSHOT_PAGE as u64, 8, RegionKind::Heap)
            .unwrap();
        assert_eq!(&grown.data[..len], &golden.data[..]);
        assert!(grown.data[len..].iter().all(|&b| b == 0));
        // The partial last page grew: it is compared, not skipped, and
        // differs by length; the new pages are mapped on one side only.
        let new_pages = grown.data.len().div_ceil(SNAPSHOT_PAGE) - snap.page_count();
        assert_eq!(grown.diverged_pages_exact(&snap), 1 + new_pages as u32);
        assert_eq!(grown.diverged_pages(&snap), 1 + new_pages as u32);
        assert!(!grown.equals_snapshot(&snap));
    }

    #[test]
    fn zero_pages_are_shared_and_never_copied_or_compared() {
        let mut m = Memory::new();
        let a = m
            .alloc(8 * SNAPSHOT_PAGE as u64, 8, RegionKind::Global)
            .unwrap();
        m.write_uint(a + 5 * SNAPSHOT_PAGE as u64, 9, 8).unwrap();
        let snap = m.snapshot(None);
        let zero = &zero_page().0;
        let shared = snap.pages.iter().filter(|p| Arc::ptr_eq(p, zero)).count();
        assert_eq!(shared, 7, "every all-zero full page is the zero page");

        let mut back = Memory::from_snapshot(&snap);
        assert_eq!(back.restore_pages_copied(), 1);
        assert!(back.matches_snapshot_hashes(&snap));
        assert!(back.equals_snapshot(&snap));
        assert_eq!(back.pages_compared(), 0, "unwritten pages are skipped");
        // One write: only that page is compared from now on.
        back.write_uint(a + 2 * SNAPSHOT_PAGE as u64, 0, 8).unwrap();
        assert_eq!(back.diverged_pages(&snap), 0);
        assert_eq!(back.diverged_pages_exact(&snap), 0);
        assert_eq!(back.pages_compared(), 2);
        // A fresh memory skips the pages still matching the zero page.
        assert!(m.equals_snapshot(&snap));
        assert_eq!(m.pages_compared(), 1);
    }

    #[test]
    fn byte_sizes() {
        let mut m = Memory::new();
        let a = m.alloc(8, 8, RegionKind::Global).unwrap();
        m.write_uint(a, 0x1122_3344_5566_7788, 8).unwrap();
        assert_eq!(m.read_uint(a, 1).unwrap(), 0x88);
        assert_eq!(m.read_uint(a, 2).unwrap(), 0x7788);
        assert_eq!(m.read_uint(a, 4).unwrap(), 0x5566_7788);
        m.write_uint(a, 0xff, 1).unwrap();
        assert_eq!(m.read_uint(a, 8).unwrap(), 0x1122_3344_5566_77ff);
    }
}

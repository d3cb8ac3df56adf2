//! Property tests for the memory model: allocation layout determinism,
//! access-check soundness, read/write round trips, and snapshot restore
//! and compares against a naive full-scan reference.

use fiq_mem::{MemSnapshot, Memory, Region, RegionKind, Trap, NULL_GUARD, SNAPSHOT_PAGE};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Allocations are aligned, disjoint, monotonically placed, and the
    /// same request sequence always produces the same addresses
    /// (the determinism both execution levels rely on for identical
    /// global layouts).
    #[test]
    fn allocation_layout(reqs in prop::collection::vec((1u64..512, prop::sample::select(vec![1u64, 2, 4, 8, 16])), 1..20)) {
        let mut m1 = Memory::new();
        let mut m2 = Memory::new();
        let mut prev_end = 0u64;
        for (size, align) in &reqs {
            let a1 = m1.alloc(*size, *align, RegionKind::Global).unwrap();
            let a2 = m2.alloc(*size, *align, RegionKind::Global).unwrap();
            prop_assert_eq!(a1, a2, "deterministic layout");
            prop_assert_eq!(a1 % align, 0, "aligned");
            prop_assert!(a1 >= NULL_GUARD);
            prop_assert!(a1 >= prev_end, "monotonic, disjoint");
            prev_end = a1 + size;
        }
    }

    /// Reads and writes round-trip at every supported width, and
    /// neighbouring bytes are untouched.
    #[test]
    fn rw_roundtrip(val in any::<u64>(), size in prop::sample::select(vec![1u64, 2, 4, 8])) {
        let mut m = Memory::new();
        let a = m.alloc(24, 8, RegionKind::Global).unwrap();
        m.write_uint(a + 8, u64::MAX, 8).unwrap();
        m.write_uint(a + 8, val, size).unwrap();
        let mask = if size == 8 { u64::MAX } else { (1 << (size * 8)) - 1 };
        prop_assert_eq!(m.read_uint(a + 8, size).unwrap(), val & mask);
        // Bytes beyond the write keep their previous value.
        if size < 8 {
            let rest = m.read_bytes(a + 8 + size, 8 - size).unwrap();
            prop_assert!(rest.iter().all(|&b| b == 0xff));
        }
        // Outside the region traps.
        prop_assert!(m.read_uint(a + 24, 1).is_err());
    }

    /// Every address below the null guard traps as a null dereference; any
    /// address beyond the mapped range traps as unmapped.
    #[test]
    fn guard_and_unmapped(off in 0u64..NULL_GUARD, far in 1u64..1_000_000) {
        let mut m = Memory::new();
        let a = m.alloc(64, 8, RegionKind::Global).unwrap();
        prop_assert_eq!(m.check(off, 1), Err(Trap::NullDeref { addr: off }));
        let wild = a + 64 + 4096 + far;
        let traps = matches!(
            m.check(wild, 1),
            Err(Trap::Unmapped { .. } | Trap::OutOfBounds { .. })
        );
        prop_assert!(traps);
    }

    /// f64 round trips bit-exactly (including NaN payloads).
    #[test]
    fn f64_roundtrip(bits in any::<u64>()) {
        let mut m = Memory::new();
        let a = m.alloc(8, 8, RegionKind::Global).unwrap();
        m.write_f64(a, f64::from_bits(bits)).unwrap();
        prop_assert_eq!(m.read_f64(a).unwrap().to_bits(), bits);
    }
}

/// A byte-level model of a [`Memory`]: the mapped image as one flat
/// vector plus the layout the snapshot compares look at.
#[derive(Clone)]
struct Shadow {
    image: Vec<u8>,
    regions: Vec<Region>,
    stack: Option<Region>,
    mapped: u64,
}

impl Shadow {
    fn of(m: &Memory) -> Shadow {
        let len = m
            .regions()
            .last()
            .map_or(0, |r| (r.end() - NULL_GUARD) as usize);
        let mut image = vec![0u8; len];
        for r in m.regions() {
            let off = (r.start - NULL_GUARD) as usize;
            image[off..off + r.size as usize]
                .copy_from_slice(m.read_bytes(r.start, r.size).unwrap());
        }
        Shadow {
            image,
            regions: m.regions().to_vec(),
            stack: m.stack(),
            mapped: m.mapped_bytes(),
        }
    }

    fn layout_eq(&self, other: &Shadow) -> bool {
        self.image.len() == other.image.len()
            && self.mapped == other.mapped
            && self.regions == other.regions
            && self.stack == other.stack
    }
}

/// The full-scan reference the page-skipping compares must agree with:
/// every common page byte-compared, plus every page mapped on one side
/// only.
fn naive_diverged(live: &Shadow, snap: &Shadow) -> u32 {
    let common = live
        .image
        .chunks(SNAPSHOT_PAGE)
        .zip(snap.image.chunks(SNAPSHOT_PAGE))
        .filter(|(a, b)| a != b)
        .count();
    let pages = |s: &Shadow| s.image.len().div_ceil(SNAPSHOT_PAGE);
    (common + pages(live).abs_diff(pages(snap))) as u32
}

/// A small deterministic generator for the write sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Applies `n` random writes to `m`: short writes of random bytes or of
/// zeros, and writes that put back the bytes of `revert_to` (so written
/// pages come back equal to a snapshot), all inside mapped regions and
/// often straddling a page boundary.
fn random_writes(m: &mut Memory, rng: &mut Rng, n: usize, revert_to: &Shadow) {
    for _ in 0..n {
        let regions = m.regions().to_vec();
        let r = regions[rng.below(regions.len() as u64) as usize];
        let len = 1 + rng.below(r.size.min(24));
        let addr = if rng.below(3) == 0 {
            // Straddle a page boundary when the region allows it.
            let boundary =
                (r.start / SNAPSHOT_PAGE as u64 + 1 + rng.below(r.size / SNAPSHOT_PAGE as u64 + 1))
                    * SNAPSHOT_PAGE as u64;
            boundary
                .saturating_sub(len / 2)
                .clamp(r.start, r.end() - len)
        } else {
            r.start + rng.below(r.size - len + 1)
        };
        let off = (addr - NULL_GUARD) as usize;
        let bytes: Vec<u8> = match rng.below(4) {
            0 => vec![0; len as usize],
            1 if off + len as usize <= revert_to.image.len() => {
                revert_to.image[off..off + len as usize].to_vec()
            }
            _ => (0..len).map(|_| rng.next() as u8).collect(),
        };
        m.write_bytes(addr, &bytes).unwrap();
    }
}

/// Checks both compares of `m` against every snapshot in `series`.
fn check_against_series(m: &Memory, series: &[(MemSnapshot, Shadow)]) -> Result<(), TestCaseError> {
    let live = Shadow::of(m);
    for (k, (snap, model)) in series.iter().enumerate() {
        let bytes_eq = live.layout_eq(model) && live.image == model.image;
        prop_assert_eq!(
            m.equals_snapshot(snap),
            bytes_eq,
            "equals_snapshot vs snapshot {}",
            k
        );
        prop_assert_eq!(
            m.diverged_pages(snap),
            naive_diverged(&live, model),
            "diverged_pages vs snapshot {}",
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The page-skipping restore and compares agree with a naive full
    /// scan: fresh and restored memories, after random writes, compared
    /// against every snapshot of a captured series — including memories
    /// grown after restore.
    #[test]
    fn snapshot_compares_match_a_full_scan(seed in any::<u64>(), globals in 1u64..(3 * SNAPSHOT_PAGE as u64), stack in (16 * SNAPSHOT_PAGE as u64)..(24 * SNAPSHOT_PAGE as u64)) {
        let mut rng = Rng(seed);
        let mut m = Memory::new();
        m.alloc(globals, 8, RegionKind::Global).unwrap();
        m.reserve_guard(SNAPSHOT_PAGE as u64);
        m.alloc_stack(stack).unwrap();

        // A captured series with a few writes between checkpoints.
        let mut series: Vec<(MemSnapshot, Shadow)> = Vec::new();
        for _ in 0..4 {
            let prev = series.last().map(|(s, _)| s);
            let snap = m.snapshot(prev);
            let model = Shadow::of(&m);
            series.push((snap, model));
            let revert = series[rng.below(series.len() as u64) as usize].1.clone();
            let n = rng.below(6) as usize;
            random_writes(&mut m, &mut rng, n, &revert);
        }
        check_against_series(&m, &series)?;

        // Restored memories: exact on restore, then written and compared.
        for _ in 0..3 {
            let k = rng.below(series.len() as u64) as usize;
            let mut back = Memory::from_snapshot(&series[k].0);
            prop_assert!(Shadow::of(&back).image == series[k].1.image, "restore of snapshot {} is exact", k);
            check_against_series(&back, &series)?;
            let revert = series[rng.below(series.len() as u64) as usize].1.clone();
            let n = rng.below(8) as usize;
            random_writes(&mut back, &mut rng, n, &revert);
            check_against_series(&back, &series)?;
            if rng.below(2) == 0 {
                back.alloc(1 + rng.below(2 * SNAPSHOT_PAGE as u64), 8, RegionKind::Heap).unwrap();
                check_against_series(&back, &series)?;
            }
        }

        // A fresh memory with the same layout, written at random.
        let mut fresh = Memory::new();
        fresh.alloc(globals, 8, RegionKind::Global).unwrap();
        fresh.reserve_guard(SNAPSHOT_PAGE as u64);
        fresh.alloc_stack(stack).unwrap();
        check_against_series(&fresh, &series)?;
        let revert = series[0].1.clone();
        random_writes(&mut fresh, &mut rng, 6, &revert);
        check_against_series(&fresh, &series)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Captures taken along one memory's run compare exactly like a naive
    /// full scan of the images at every later point, for a fresh and a
    /// restored memory, through writes that revert pages to captured
    /// bytes and through growth.
    #[test]
    fn capture_compares_match_a_full_scan(seed in any::<u64>(), globals in 1u64..(3 * SNAPSHOT_PAGE as u64), stack in (16 * SNAPSHOT_PAGE as u64)..(24 * SNAPSHOT_PAGE as u64)) {
        let mut rng = Rng(seed);
        let mut m = Memory::new();
        m.alloc(globals, 8, RegionKind::Global).unwrap();
        m.reserve_guard(SNAPSHOT_PAGE as u64);
        m.alloc_stack(stack).unwrap();
        let zeros = Shadow::of(&m);
        random_writes(&mut m, &mut rng, 6, &zeros);
        let restored = Memory::from_snapshot(&m.snapshot(None));
        for mut mem in [m, restored] {
            let mut captures = Vec::new();
            for step in 0..6 {
                captures.push((mem.capture(), Shadow::of(&mem)));
                let revert = captures[rng.below(captures.len() as u64) as usize].1.clone();
                let n = rng.below(6) as usize;
                random_writes(&mut mem, &mut rng, n, &revert);
                if step == 4 {
                    mem.alloc(1 + rng.below(2 * SNAPSHOT_PAGE as u64), 8, RegionKind::Heap).unwrap();
                }
                let live = Shadow::of(&mem);
                for (k, (capture, model)) in captures.iter().enumerate() {
                    let equal = live.layout_eq(model) && live.image == model.image;
                    prop_assert_eq!(mem.equals_snapshot(capture), equal, "capture {}", k);
                }
            }
        }
    }
}

/// The access check spelled out over the region list: the region holding
/// `addr`, then a walk across back-to-back regions until the access ends
/// or reaches unmapped space.
fn naive_check(regions: &[Region], addr: u64, size: u64) -> Result<(), Trap> {
    if addr < NULL_GUARD {
        return Err(Trap::NullDeref { addr });
    }
    let holding = |a: u64| regions.iter().find(|r| r.contains(a));
    let r = holding(addr).ok_or(Trap::Unmapped { addr })?;
    let end = addr.checked_add(size).ok_or(Trap::OutOfBounds { addr })?;
    let mut cursor = r.end();
    while cursor < end {
        cursor = holding(cursor).ok_or(Trap::OutOfBounds { addr })?.end();
    }
    Ok(())
}

/// Checks every access of 1, 2, 4 or 8 bytes starting within 16 bytes of
/// a region edge, of the end of the last index granule, of the null guard
/// or of the top of the address space against [`naive_check`].
fn check_edges(m: &Memory, regions: &[Region]) -> Result<(), TestCaseError> {
    let last_end = regions.last().map_or(NULL_GUARD, Region::end);
    let granule_end = (last_end - NULL_GUARD).next_multiple_of(SNAPSHOT_PAGE as u64) + NULL_GUARD;
    let extremes = [granule_end, NULL_GUARD, 0, u64::MAX];
    let edges = regions.iter().flat_map(|r| [r.start, r.end()]);
    for edge in edges.chain(extremes) {
        for addr in edge.saturating_sub(16)..=edge.saturating_add(16) {
            for size in [1, 2, 4, 8] {
                prop_assert_eq!(
                    m.check(addr, size),
                    naive_check(regions, addr, size),
                    "access of {} bytes at {:#x}",
                    size,
                    addr
                );
            }
        }
    }
    Ok(())
}

/// One allocation of a random layout: bytes of guard space skipped
/// first (none in two draws of three), then the region's size (under 64
/// bytes in two draws of three) and alignment.
fn region_spec() -> impl Strategy<Value = (u64, u64, u64)> {
    (
        prop_oneof![Just(0u64), Just(0u64), 1u64..(2 * SNAPSHOT_PAGE as u64)],
        prop_oneof![1u64..64, 1u64..64, 1u64..(3 * SNAPSHOT_PAGE as u64)],
        prop::sample::select(vec![1u64, 2, 4, 8, 16, 64, SNAPSHOT_PAGE as u64]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The indexed access check raises exactly the trap (or success) of a
    /// linear scan over the regions, on layouts with alignment holes,
    /// guard gaps and a stack: before and after every allocation, on a
    /// restored copy, and after allocating past the restored layout.
    #[test]
    fn access_check_matches_a_linear_scan(
        globals in prop::collection::vec(region_spec(), 1..12),
        stack_guard in 0u64..(2 * SNAPSHOT_PAGE as u64),
        stack in 1u64..(4 * SNAPSHOT_PAGE as u64),
        heap in region_spec(),
    ) {
        let mut m = Memory::new();
        check_edges(&m, &[])?;
        for &(guard, size, align) in &globals {
            m.reserve_guard(guard);
            m.alloc(size, align, RegionKind::Global).unwrap();
            check_edges(&m, m.regions())?;
        }
        m.reserve_guard(stack_guard);
        m.alloc_stack(stack).unwrap();
        let regions = m.regions().to_vec();
        check_edges(&m, &regions)?;

        let mut back = Memory::from_snapshot(&m.snapshot(None));
        prop_assert_eq!(back.regions(), &regions[..]);
        check_edges(&back, &regions)?;
        let (guard, size, align) = heap;
        back.reserve_guard(guard);
        back.alloc(size, align, RegionKind::Heap).unwrap();
        check_edges(&back, back.regions())?;
        // The copy's allocation leaves the original's layout alone.
        check_edges(&m, &regions)?;
    }
}

/// The little-endian value of `size` model bytes at `addr`.
fn model_read(image: &[u8], addr: u64, size: u64) -> u64 {
    let off = (addr - NULL_GUARD) as usize;
    image[off..off + size as usize]
        .iter()
        .rev()
        .fold(0, |v, &b| (v << 8) | u64::from(b))
}

/// True when `f` panics.
fn panics(f: impl FnOnce()) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
}

/// Checks every 1, 2, 4 and 8-byte `read_uint` and `write_uint` starting
/// within 16 bytes of a region edge, in the last 7 bytes of the mapped
/// image, or within 16 bytes of the null guard, of 0 or of `u64::MAX`
/// against [`naive_check`] and a byte model. `m` and `twin` are restored
/// from `snap`; every write to `m` is repeated on `twin` through
/// `write_bytes`, the general mutation path, and both must then report
/// the same pages diverged from `snap` (the byte-exact count, which skips
/// exactly the pages the written bitmap calls clean).
fn check_sized(
    m: &mut Memory,
    twin: &mut Memory,
    snap: &MemSnapshot,
    rng: &mut Rng,
) -> Result<(), TestCaseError> {
    let regions = m.regions().to_vec();
    let mut image = Shadow::of(m).image;
    let last_end = regions.last().map_or(NULL_GUARD, Region::end);
    let tail = last_end.saturating_sub(7)..last_end;
    let edges = regions
        .iter()
        .flat_map(|r| [r.start, r.end()])
        .chain([NULL_GUARD, 0, u64::MAX])
        .flat_map(|e| e.saturating_sub(16)..=e.saturating_add(16));
    for addr in tail.chain(edges) {
        for size in [1, 2, 4, 8] {
            let want = naive_check(&regions, addr, size);
            prop_assert_eq!(
                m.read_uint(addr, size),
                want.map(|()| model_read(&image, addr, size)),
                "read of {} bytes at {:#x}",
                size,
                addr
            );
            let val = rng.next();
            let bytes = &val.to_le_bytes()[..size as usize];
            prop_assert_eq!(
                m.write_uint(addr, val, size),
                want,
                "write of {} bytes at {:#x}",
                size,
                addr
            );
            prop_assert_eq!(twin.write_bytes(addr, bytes), want);
            if want.is_ok() {
                let off = (addr - NULL_GUARD) as usize;
                image[off..off + bytes.len()].copy_from_slice(bytes);
            }
            prop_assert_eq!(
                m.diverged_pages(snap),
                twin.diverged_pages(snap),
                "pages written by {} bytes at {:#x}",
                size,
                addr
            );
        }
    }
    prop_assert!(m.equals_snapshot(&twin.snapshot(None)));
    for addr in [regions[0].start, 0] {
        prop_assert!(
            panics(|| {
                let _ = m.read_uint(addr, 3);
            }),
            "read of 3 bytes at {:#x}",
            addr
        );
        prop_assert!(
            panics(|| {
                let _ = m.write_uint(addr, 0, 3);
            }),
            "write of 3 bytes at {:#x}",
            addr
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sized accessors — an inline fast path for an access inside
    /// the first run of its granule, a cold walk for the rest — return
    /// exactly the model's value or the linear scan's trap, and mark
    /// exactly the pages the general write path marks, on layouts with
    /// alignment holes, guard gaps and a stack.
    #[test]
    fn sized_access_matches_a_linear_scan(
        seed in any::<u64>(),
        globals in prop::collection::vec(region_spec(), 1..12),
        stack_guard in 0u64..(2 * SNAPSHOT_PAGE as u64),
        stack in 1u64..(4 * SNAPSHOT_PAGE as u64),
    ) {
        let mut rng = Rng(seed);
        let mut golden = Memory::new();
        for &(guard, size, align) in &globals {
            golden.reserve_guard(guard);
            golden.alloc(size, align, RegionKind::Global).unwrap();
        }
        golden.reserve_guard(stack_guard);
        golden.alloc_stack(stack).unwrap();
        let revert = Shadow::of(&golden);
        random_writes(&mut golden, &mut rng, 8, &revert);
        let snap = golden.snapshot(None);
        let mut m = Memory::from_snapshot(&snap);
        let mut twin = Memory::from_snapshot(&snap);
        check_sized(&mut m, &mut twin, &snap, &mut rng)?;
    }
}

#[test]
fn guard_gap_between_globals_and_stack_traps() {
    let mut m = Memory::new();
    let g = m.alloc(64, 8, RegionKind::Global).unwrap();
    m.reserve_guard(4096);
    let top = m.alloc_stack(8192).unwrap();
    let stack_start = top - 8192;
    // The gap between the global end and the stack start is unmapped.
    let gap_addr = g + 64 + 1024;
    assert!(gap_addr < stack_start);
    assert!(matches!(
        m.check(gap_addr, 8),
        Err(Trap::Unmapped { .. } | Trap::OutOfBounds { .. })
    ));
    // But both sides are fine.
    m.check(g, 8).unwrap();
    m.check(stack_start, 8).unwrap();
}

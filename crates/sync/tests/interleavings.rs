//! Exhaustive interleaving checks for the workspace's six concurrency
//! protocols, driven by the [`sp_sync::check`] mini-loom.
//!
//! Each model mirrors one real protocol at the granularity of its
//! atomic actions:
//!
//! 1. [`QueueClaimMerge`] — [`sp_sync::WorkQueue`]: workers `fetch_add`
//!    a shared cursor to claim chunks, process them, and the merge
//!    reassembles outputs in chunk order.
//! 2. [`VisitedWraparound`] — `sp_core`'s `VisitedSet` generation
//!    stamps behind a CAS-claimed buffer pool, with the epoch width
//!    shrunk so every exploration crosses the wrap-and-bulk-clear path.
//! 3. [`CowSwap`] — the epoch-versioned `Arc` copy-on-write position
//!    table: a writer builds a private copy and publishes it with one
//!    atomic pointer swap while readers load concurrently.
//! 4. [`EpochSwap`] — [`sp_sync::EpochCell`]'s publish protocol behind
//!    `sp_core`'s `RoutingService`: fill the snapshot off to the side,
//!    then bump the epoch counter and swap the slot inside the write
//!    critical section, while readers pin `(epoch, Arc)` pairs and
//!    probe the counter wait-free.
//! 5. [`TwoUpdaters`] — [`sp_sync::EpochCell::update`] behind
//!    `RoutingService::apply_moves`: each updater loads the current
//!    value, derives the next from it and publishes, all under the
//!    writer lock, so neither update is lost.
//! 6. [`AdmissionClose`] — [`sp_sync::Admission`] behind `sp_serve`'s
//!    worker pool: an acceptor admits a connection while one worker
//!    closes the queue and acks `SHUTDOWN` and an idle worker pops
//!    until the queue is closed and empty.
//!
//! The explorer walks **every** schedule of 2–3 modeled threads and
//! checks the invariants at every reachable state, so a pass here is a
//! proof over the modeled state space, not a lucky sample.

use sp_sync::check::{explore, Interleave, Report};

fn assert_explored(name: &str, report: Report) {
    assert!(
        report.schedules > 0,
        "{name}: explorer must complete at least one schedule"
    );
    assert!(
        report.steps >= report.schedules,
        "{name}: steps {} < schedules {}",
        report.steps,
        report.schedules
    );
    eprintln!(
        "{name}: {} schedules, {} steps, deepest {}",
        report.schedules, report.steps, report.deepest
    );
}

// ---------------------------------------------------------------------
// Model 1: WorkQueue chunk claiming and ordered merge.
// ---------------------------------------------------------------------

/// Per-worker program counter for [`QueueClaimMerge`].
#[derive(Clone, Copy, PartialEq)]
enum WorkerPc {
    /// About to `fetch_add` the shared cursor.
    Claim,
    /// Claimed this chunk; about to process and write its output slot.
    Process(usize),
    /// Cursor ran past the chunk count.
    Finished,
}

/// Workers race a shared cursor for chunks, then the in-order merge is
/// checked against the serial result.
///
/// `fetch_add` is a single atomic action in the real queue, so it is a
/// single step here; processing + slot write is the second step. The
/// invariants catch a chunk claimed twice (slot written twice), a chunk
/// skipped, or a merge that fails to reconstruct chunk order.
#[derive(Clone)]
struct QueueClaimMerge {
    cursor: usize,
    chunks: usize,
    pcs: Vec<WorkerPc>,
    /// `slots[c]` = how many times chunk `c`'s output was written, and
    /// the value written (chunk id, so the merged output must be the
    /// identity sequence).
    slots: Vec<(usize, usize)>,
}

impl QueueClaimMerge {
    fn new(workers: usize, chunks: usize) -> QueueClaimMerge {
        QueueClaimMerge {
            cursor: 0,
            chunks,
            pcs: vec![WorkerPc::Claim; workers],
            slots: vec![(0, usize::MAX); chunks],
        }
    }
}

impl Interleave for QueueClaimMerge {
    fn runnable(&self) -> Vec<usize> {
        (0..self.pcs.len())
            .filter(|&t| self.pcs[t] != WorkerPc::Finished)
            .collect()
    }

    fn step(&mut self, tid: usize) {
        match self.pcs[tid] {
            WorkerPc::Claim => {
                let c = self.cursor;
                self.cursor += 1;
                self.pcs[tid] = if c < self.chunks {
                    WorkerPc::Process(c)
                } else {
                    WorkerPc::Finished
                };
            }
            WorkerPc::Process(c) => {
                self.slots[c].0 += 1;
                self.slots[c].1 = c;
                self.pcs[tid] = WorkerPc::Claim;
            }
            WorkerPc::Finished => unreachable!("finished workers are not runnable"),
        }
    }

    fn done(&self) -> bool {
        self.pcs.iter().all(|&pc| pc == WorkerPc::Finished)
    }

    fn invariants(&self) -> Result<(), String> {
        for (c, &(writes, value)) in self.slots.iter().enumerate() {
            if writes > 1 {
                return Err(format!("chunk {c} claimed {writes} times"));
            }
            if writes == 1 && value != c {
                return Err(format!("chunk {c} slot holds {value}: merge order broken"));
            }
        }
        if self.done() {
            if let Some(c) = self.slots.iter().position(|&(writes, _)| writes == 0) {
                return Err(format!("chunk {c} never processed"));
            }
        }
        Ok(())
    }
}

#[test]
fn work_queue_claims_every_chunk_exactly_once_in_order() {
    for (workers, chunks) in [(2, 3), (3, 2), (3, 3)] {
        let report = explore(&QueueClaimMerge::new(workers, chunks))
            .unwrap_or_else(|v| panic!("{workers} workers / {chunks} chunks: {v}"));
        assert_explored(&format!("queue {workers}w/{chunks}c"), report);
    }
}

#[test]
fn work_queue_model_catches_a_non_atomic_cursor() {
    /// The same protocol with the claim split into a racy load and a
    /// separate store — the bug the real `fetch_add` exists to prevent.
    #[derive(Clone)]
    struct TornClaim {
        inner: QueueClaimMerge,
        /// Thread ids mid-claim: loaded the cursor, not yet stored.
        loaded: Vec<Option<usize>>,
    }

    impl Interleave for TornClaim {
        fn runnable(&self) -> Vec<usize> {
            self.inner.runnable()
        }
        fn step(&mut self, tid: usize) {
            match self.inner.pcs[tid] {
                WorkerPc::Claim => match self.loaded[tid] {
                    None => self.loaded[tid] = Some(self.inner.cursor),
                    Some(c) => {
                        self.inner.cursor = c + 1;
                        self.loaded[tid] = None;
                        self.inner.pcs[tid] = if c < self.inner.chunks {
                            WorkerPc::Process(c)
                        } else {
                            WorkerPc::Finished
                        };
                    }
                },
                _ => self.inner.step(tid),
            }
        }
        fn done(&self) -> bool {
            self.inner.done()
        }
        fn invariants(&self) -> Result<(), String> {
            self.inner.invariants()
        }
    }

    let err = explore(&TornClaim {
        inner: QueueClaimMerge::new(2, 2),
        loaded: vec![None; 2],
    })
    .expect_err("a load/store claim must double-claim under some schedule");
    assert!(err.message.contains("claimed 2 times"), "{err}");
}

// ---------------------------------------------------------------------
// Model 2: VisitedSet generation stamps behind a CAS-claimed pool.
// ---------------------------------------------------------------------

/// Epoch width of the modeled `VisitedSet`. The real counter is `u32`;
/// shrinking it to wrap after two resets forces every exploration
/// through the wrap-and-bulk-clear branch that production code reaches
/// once per `u32::MAX` routes.
const EPOCH_MAX: u8 = 2;

/// Modeled node count. Node 1 carries a stale stamp from a previous
/// generation; node 0 is the one each packet actually visits.
const NODES: usize = 2;

#[derive(Clone, Copy)]
struct ModelVisited {
    stamps: [u8; NODES],
    epoch: u8,
}

impl ModelVisited {
    /// `VisitedSet::reset`, with the modeled epoch width: wraps
    /// bulk-clear the stamps so stale generations stay unreadable.
    fn reset(&mut self) {
        if self.epoch == EPOCH_MAX {
            self.stamps = [0; NODES];
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn insert(&mut self, v: usize) {
        self.stamps[v] = self.epoch;
    }

    fn contains(&self, v: usize) -> bool {
        self.stamps[v] == self.epoch
    }
}

/// Per-thread program counter for [`VisitedWraparound`].
#[derive(Clone, Copy, PartialEq)]
enum RoutePc {
    /// Compare-and-swap the pool's `free` flag to claim the shared set.
    TryClaim,
    /// Start a fresh generation in the owned set (`true` = the shared
    /// pooled set, `false` = a private fallback set).
    Reset(bool),
    /// Mark node 0 visited.
    Insert(bool),
    /// Read both nodes back; the invariant checks the observation.
    Check(bool),
    /// Return the shared set to the pool (fallback sets are dropped).
    Release(bool),
    Done,
}

/// Two packets race to reuse one pooled `VisitedSet` across the epoch
/// wrap.
///
/// The pool hands the set out through a CAS on `free`; a loser takes a
/// fresh private set (the pool's allocate-on-empty path) instead of
/// spinning, which keeps the schedule space finite. The pooled set
/// starts one reset away from the wrap with a stale stamp planted on
/// node 1 — exactly the stamp that would alias a future epoch if the
/// wrap failed to bulk-clear.
#[derive(Clone)]
struct VisitedWraparound {
    pool: ModelVisited,
    free: bool,
    pcs: [RoutePc; 2],
    privs: [ModelVisited; 2],
    /// `(saw_inserted, saw_stale)` per thread, recorded at `Check`.
    observed: [Option<(bool, bool)>; 2],
}

impl VisitedWraparound {
    fn new() -> VisitedWraparound {
        VisitedWraparound {
            // One reset away from the wrap; node 1's stamp is stale
            // residue from the "previous" packet's generation.
            pool: ModelVisited {
                stamps: [0, 1],
                epoch: 1,
            },
            free: true,
            pcs: [RoutePc::TryClaim; 2],
            privs: [ModelVisited {
                stamps: [0; NODES],
                epoch: 0,
            }; 2],
            observed: [None; 2],
        }
    }

    fn set_mut(&mut self, tid: usize, pooled: bool) -> &mut ModelVisited {
        if pooled {
            &mut self.pool
        } else {
            &mut self.privs[tid]
        }
    }
}

impl Interleave for VisitedWraparound {
    fn runnable(&self) -> Vec<usize> {
        (0..2).filter(|&t| self.pcs[t] != RoutePc::Done).collect()
    }

    fn step(&mut self, tid: usize) {
        match self.pcs[tid] {
            RoutePc::TryClaim => {
                // CAS(free, true -> false): one atomic action.
                let won = std::mem::replace(&mut self.free, false);
                self.pcs[tid] = RoutePc::Reset(won);
            }
            RoutePc::Reset(pooled) => {
                self.set_mut(tid, pooled).reset();
                self.pcs[tid] = RoutePc::Insert(pooled);
            }
            RoutePc::Insert(pooled) => {
                self.set_mut(tid, pooled).insert(0);
                self.pcs[tid] = RoutePc::Check(pooled);
            }
            RoutePc::Check(pooled) => {
                let set = if pooled { &self.pool } else { &self.privs[tid] };
                self.observed[tid] = Some((set.contains(0), set.contains(1)));
                self.pcs[tid] = RoutePc::Release(pooled);
            }
            RoutePc::Release(pooled) => {
                if pooled {
                    self.free = true;
                }
                self.pcs[tid] = RoutePc::Done;
            }
            RoutePc::Done => unreachable!("done threads are not runnable"),
        }
    }

    fn done(&self) -> bool {
        self.pcs.iter().all(|&pc| pc == RoutePc::Done)
    }

    fn invariants(&self) -> Result<(), String> {
        // Mutual exclusion: at most one thread may hold the pooled set
        // between claim and release.
        let holders = self
            .pcs
            .iter()
            .filter(|pc| {
                matches!(
                    pc,
                    RoutePc::Reset(true)
                        | RoutePc::Insert(true)
                        | RoutePc::Check(true)
                        | RoutePc::Release(true)
                )
            })
            .count();
        if holders > 1 {
            return Err(format!("{holders} threads hold the pooled set at once"));
        }
        for (tid, obs) in self.observed.iter().enumerate() {
            match obs {
                Some((false, _)) => {
                    return Err(format!("thread {tid}: inserted node reads unvisited"));
                }
                Some((_, true)) => {
                    return Err(format!("thread {tid}: stale stamp survived the epoch wrap"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[test]
fn visited_set_epoch_wrap_never_leaks_stale_stamps() {
    let report = explore(&VisitedWraparound::new()).unwrap_or_else(|v| panic!("{v}"));
    assert_explored("visited wraparound", report);
}

#[test]
fn visited_model_catches_a_wrap_without_bulk_clear() {
    /// The same protocol with the bulk-clear dropped from the wrap —
    /// the bug the `stamps.fill(0)` in `VisitedSet::reset` prevents.
    #[derive(Clone)]
    struct NoClear(VisitedWraparound);

    impl Interleave for NoClear {
        fn runnable(&self) -> Vec<usize> {
            self.0.runnable()
        }
        fn step(&mut self, tid: usize) {
            if let RoutePc::Reset(pooled) = self.0.pcs[tid] {
                let set = self.0.set_mut(tid, pooled);
                // BUG: wrap the epoch without clearing the stamps.
                if set.epoch == EPOCH_MAX {
                    set.epoch = 0;
                }
                set.epoch += 1;
                self.0.pcs[tid] = RoutePc::Insert(pooled);
            } else {
                self.0.step(tid);
            }
        }
        fn done(&self) -> bool {
            self.0.done()
        }
        fn invariants(&self) -> Result<(), String> {
            self.0.invariants()
        }
    }

    let err = explore(&NoClear(VisitedWraparound::new()))
        .expect_err("a wrap without bulk-clear must alias a stale stamp");
    assert!(err.message.contains("stale stamp"), "{err}");
}

// ---------------------------------------------------------------------
// Model 3: the Arc copy-on-write position-table swap.
// ---------------------------------------------------------------------

/// Per-thread program counter for [`CowSwap`]: pc 0 is the writer,
/// pcs 1.. are readers.
#[derive(Clone, Copy, PartialEq)]
enum CowPc {
    /// Writer: clone the current table into private storage.
    Clone,
    /// Writer: apply the position update to the private copy.
    Mutate,
    /// Writer: publish the new table with one atomic pointer store.
    Publish,
    /// Reader: atomically load the table pointer.
    Load,
    /// Reader: read positions through the loaded pointer.
    Read,
    Done,
}

/// A modeled position table: an epoch and the data that must always
/// agree with it. `data == epoch` is the "fully initialized" condition;
/// a torn publication breaks it.
#[derive(Clone, Copy, PartialEq)]
struct Table {
    epoch: u8,
    data: u8,
}

/// One writer swaps in an updated table while two readers load
/// concurrently: no reader may ever observe a table whose data does not
/// match its epoch, whichever side of the swap it lands on.
#[derive(Clone)]
struct CowSwap {
    /// The published `Arc` pointer (modeled by value: readers holding a
    /// clone of the old table keep it alive, exactly like `Arc`).
    published: Table,
    /// The writer's private copy-in-progress.
    private: Option<Table>,
    pcs: Vec<CowPc>,
    /// Each reader's loaded pointer (its `Arc` clone).
    loaded: Vec<Option<Table>>,
    /// Each reader's final observation.
    observed: Vec<Option<Table>>,
}

impl CowSwap {
    fn new(readers: usize) -> CowSwap {
        let mut pcs = vec![CowPc::Clone];
        pcs.extend(std::iter::repeat_n(CowPc::Load, readers));
        CowSwap {
            published: Table { epoch: 1, data: 1 },
            private: None,
            pcs,
            loaded: vec![None; readers + 1],
            observed: vec![None; readers + 1],
        }
    }
}

impl Interleave for CowSwap {
    fn runnable(&self) -> Vec<usize> {
        (0..self.pcs.len())
            .filter(|&t| self.pcs[t] != CowPc::Done)
            .collect()
    }

    fn step(&mut self, tid: usize) {
        match self.pcs[tid] {
            CowPc::Clone => {
                self.private = Some(self.published);
                self.pcs[tid] = CowPc::Mutate;
            }
            CowPc::Mutate => {
                // The COW discipline: epoch and data advance together
                // on the *private* copy, before publication.
                if let Some(t) = self.private.as_mut() {
                    t.epoch += 1;
                    t.data = t.epoch;
                }
                self.pcs[tid] = CowPc::Publish;
            }
            CowPc::Publish => {
                self.published = self.private.take().expect("mutated before publishing");
                self.pcs[tid] = CowPc::Done;
            }
            CowPc::Load => {
                self.loaded[tid] = Some(self.published);
                self.pcs[tid] = CowPc::Read;
            }
            CowPc::Read => {
                self.observed[tid] = self.loaded[tid];
                self.pcs[tid] = CowPc::Done;
            }
            CowPc::Done => unreachable!("done threads are not runnable"),
        }
    }

    fn done(&self) -> bool {
        self.pcs.iter().all(|&pc| pc == CowPc::Done)
    }

    fn invariants(&self) -> Result<(), String> {
        for (tid, obs) in self.observed.iter().enumerate() {
            if let Some(t) = obs {
                if t.data != t.epoch {
                    return Err(format!(
                        "reader {tid} observed epoch {} with data {}",
                        t.epoch, t.data
                    ));
                }
            }
        }
        Ok(())
    }
}

#[test]
fn cow_swap_readers_never_observe_a_torn_table() {
    for readers in [1, 2] {
        let report =
            explore(&CowSwap::new(readers)).unwrap_or_else(|v| panic!("{readers} readers: {v}"));
        assert_explored(&format!("cow swap {readers}r"), report);
    }
}

#[test]
fn cow_model_catches_in_place_mutation() {
    /// The same writer mutating the *published* table in place instead
    /// of a private copy — the bug the COW clone exists to prevent.
    #[derive(Clone)]
    struct InPlace(CowSwap);

    impl Interleave for InPlace {
        fn runnable(&self) -> Vec<usize> {
            self.0.runnable()
        }
        fn step(&mut self, tid: usize) {
            match self.0.pcs[tid] {
                // BUG: skip the clone; bump epoch and data as two
                // separate writes to the shared published table.
                CowPc::Clone => {
                    self.0.published.epoch += 1;
                    self.0.pcs[tid] = CowPc::Mutate;
                }
                CowPc::Mutate => {
                    self.0.published.data = self.0.published.epoch;
                    self.0.pcs[tid] = CowPc::Done;
                }
                _ => self.0.step(tid),
            }
        }
        fn done(&self) -> bool {
            self.0.done()
        }
        fn invariants(&self) -> Result<(), String> {
            self.0.invariants()
        }
    }

    let err = explore(&InPlace(CowSwap::new(1)))
        .expect_err("in-place mutation must show a reader a torn table");
    assert!(err.message.contains("observed epoch"), "{err}");
}

// ---------------------------------------------------------------------
// Model 4: the EpochCell fill -> bump -> swap publish protocol.
// ---------------------------------------------------------------------

/// A modeled snapshot value: its intended epoch id and whether the
/// writer finished building it. Publishing an unfilled value is the
/// fill-then-publish violation the protocol exists to prevent.
#[derive(Clone, Copy, PartialEq)]
struct Snap {
    id: u8,
    filled: bool,
}

/// Writer program counter for [`EpochSwap`]. The real `publish` holds
/// the write lock across the counter bump and the slot swap; the model
/// keeps them separate steps with the lock flag raised, so the
/// wait-free counter probe (which takes no lock) can interleave between
/// them but a pinning load cannot.
#[derive(Clone, Copy, PartialEq)]
enum WriterPc {
    /// Allocate the next snapshot off to the side (not yet filled).
    Alloc,
    /// Finish building it — after this, and only after, it may publish.
    Fill,
    /// Take the write lock.
    Acquire,
    /// Advance the epoch counter (atomic store, lock held).
    Bump,
    /// Swap the slot pointer (lock still held).
    Swap,
    /// Drop the write lock.
    Release,
    Done,
}

/// Reader program counter: pin the `(epoch, value)` pair under the
/// read lock, then probe the counter wait-free — the exact steady-state
/// sequence of a `ServiceSession`.
#[derive(Clone, Copy, PartialEq)]
enum ReaderPc {
    /// `EpochCell::load`: read counter + slot together (read-locked).
    Load,
    /// `EpochCell::epoch`: the lock-free staleness probe.
    Probe,
    Done,
}

/// One writer publishes epoch 2 while readers pin and probe. Invariants
/// at every reachable state:
///
/// * a pinned snapshot is always fully built (fill-then-publish);
/// * a pinned pair is internally consistent (`value.id == epoch`);
/// * a counter probed *after* pinning is never behind the pinned stamp
///   (`answer.epoch <= service.epoch()`, the service invariant).
#[derive(Clone)]
struct EpochSwap {
    counter: u8,
    slot: Snap,
    private: Option<Snap>,
    write_locked: bool,
    writer_pc: WriterPc,
    reader_pcs: Vec<ReaderPc>,
    pinned: Vec<Option<(u8, Snap)>>,
    probed: Vec<Option<u8>>,
}

impl EpochSwap {
    fn new(readers: usize) -> EpochSwap {
        EpochSwap {
            counter: 1,
            slot: Snap {
                id: 1,
                filled: true,
            },
            private: None,
            write_locked: false,
            writer_pc: WriterPc::Alloc,
            reader_pcs: vec![ReaderPc::Load; readers],
            pinned: vec![None; readers],
            probed: vec![None; readers],
        }
    }

    fn step_reader(&mut self, r: usize) {
        match self.reader_pcs[r] {
            ReaderPc::Load => {
                self.pinned[r] = Some((self.counter, self.slot));
                self.reader_pcs[r] = ReaderPc::Probe;
            }
            ReaderPc::Probe => {
                self.probed[r] = Some(self.counter);
                self.reader_pcs[r] = ReaderPc::Done;
            }
            ReaderPc::Done => unreachable!("done readers are not runnable"),
        }
    }

    fn check_observations(&self) -> Result<(), String> {
        for (r, pin) in self.pinned.iter().enumerate() {
            let Some((stamp, snap)) = pin else { continue };
            if !snap.filled {
                return Err(format!("reader {r} pinned a half-built snapshot"));
            }
            if snap.id != *stamp {
                return Err(format!(
                    "reader {r} pinned snapshot {} stamped epoch {stamp}",
                    snap.id
                ));
            }
            if let Some(probe) = self.probed[r] {
                if probe < *stamp {
                    return Err(format!(
                        "reader {r}: pinned stamp {stamp} ran ahead of probed counter {probe}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Interleave for EpochSwap {
    fn runnable(&self) -> Vec<usize> {
        let mut r = Vec::new();
        if self.writer_pc != WriterPc::Done {
            r.push(0);
        }
        for (i, &pc) in self.reader_pcs.iter().enumerate() {
            // A pinning load blocks on the write lock; the probe never
            // does.
            let blocked = pc == ReaderPc::Load && self.write_locked;
            if pc != ReaderPc::Done && !blocked {
                r.push(i + 1);
            }
        }
        r
    }

    fn step(&mut self, tid: usize) {
        if tid > 0 {
            return self.step_reader(tid - 1);
        }
        match self.writer_pc {
            WriterPc::Alloc => {
                self.private = Some(Snap {
                    id: 2,
                    filled: false,
                });
                self.writer_pc = WriterPc::Fill;
            }
            WriterPc::Fill => {
                if let Some(s) = self.private.as_mut() {
                    s.filled = true;
                }
                self.writer_pc = WriterPc::Acquire;
            }
            WriterPc::Acquire => {
                self.write_locked = true;
                self.writer_pc = WriterPc::Bump;
            }
            WriterPc::Bump => {
                self.counter += 1;
                self.writer_pc = WriterPc::Swap;
            }
            WriterPc::Swap => {
                self.slot = self.private.take().expect("allocated before swapping");
                self.writer_pc = WriterPc::Release;
            }
            WriterPc::Release => {
                self.write_locked = false;
                self.writer_pc = WriterPc::Done;
            }
            WriterPc::Done => unreachable!("a done writer is not runnable"),
        }
    }

    fn done(&self) -> bool {
        self.writer_pc == WriterPc::Done && self.reader_pcs.iter().all(|&pc| pc == ReaderPc::Done)
    }

    fn invariants(&self) -> Result<(), String> {
        self.check_observations()
    }
}

#[test]
fn epoch_cell_publish_never_exposes_torn_or_future_snapshots() {
    for readers in [1, 2] {
        let report =
            explore(&EpochSwap::new(readers)).unwrap_or_else(|v| panic!("{readers} readers: {v}"));
        assert_explored(&format!("epoch swap {readers}r"), report);
    }
}

#[test]
fn epoch_model_catches_publish_before_fill() {
    /// The same writer publishing first and filling the snapshot last —
    /// the bug the fill-then-publish discipline (build the whole
    /// `Network` + `SafetyInfo` before `EpochCell::publish`) prevents.
    #[derive(Clone)]
    struct PublishBeforeFill(EpochSwap);

    impl Interleave for PublishBeforeFill {
        fn runnable(&self) -> Vec<usize> {
            self.0.runnable()
        }
        fn step(&mut self, tid: usize) {
            if tid > 0 {
                return self.0.step_reader(tid - 1);
            }
            match self.0.writer_pc {
                // BUG: swap the unfilled snapshot in and fill it only
                // after the lock is gone — readers in between pin a
                // half-built value.
                WriterPc::Alloc => {
                    self.0.private = Some(Snap {
                        id: 2,
                        filled: false,
                    });
                    self.0.writer_pc = WriterPc::Acquire;
                }
                WriterPc::Release => {
                    self.0.write_locked = false;
                    self.0.writer_pc = WriterPc::Fill;
                }
                WriterPc::Fill => {
                    self.0.slot.filled = true;
                    self.0.writer_pc = WriterPc::Done;
                }
                _ => self.0.step(tid),
            }
        }
        fn done(&self) -> bool {
            self.0.done()
        }
        fn invariants(&self) -> Result<(), String> {
            self.0.invariants()
        }
    }

    let err = explore(&PublishBeforeFill(EpochSwap::new(1)))
        .expect_err("publishing before filling must expose a half-built snapshot");
    assert!(err.message.contains("half-built"), "{err}");
}

#[test]
fn epoch_model_catches_swap_before_bump() {
    /// The same writer swapping the slot *before* bumping the counter —
    /// with the pinning load modeled lock-free (two separate reads), a
    /// reader can pin the new snapshot while the counter still reads
    /// the old epoch, breaking `answer.epoch <= service.epoch()`. This
    /// is why `EpochCell::publish` bumps first and `load` reads the
    /// pair under the lock.
    #[derive(Clone)]
    struct SwapBeforeBump(EpochSwap);

    impl Interleave for SwapBeforeBump {
        fn runnable(&self) -> Vec<usize> {
            // BUG (part 2): loads ignore the write lock, as if `load`
            // were two independent atomic reads.
            let mut r = Vec::new();
            if self.0.writer_pc != WriterPc::Done {
                r.push(0);
            }
            for (i, &pc) in self.0.reader_pcs.iter().enumerate() {
                if pc != ReaderPc::Done {
                    r.push(i + 1);
                }
            }
            r
        }
        fn step(&mut self, tid: usize) {
            if tid > 0 {
                return self.0.step_reader(tid - 1);
            }
            match self.0.writer_pc {
                // BUG (part 1): slot swap precedes the counter bump.
                WriterPc::Bump => {
                    self.0.slot = self.0.private.take().expect("allocated before swapping");
                    self.0.writer_pc = WriterPc::Swap;
                }
                WriterPc::Swap => {
                    self.0.counter += 1;
                    self.0.writer_pc = WriterPc::Release;
                }
                _ => self.0.step(tid),
            }
        }
        fn done(&self) -> bool {
            self.0.done()
        }
        fn invariants(&self) -> Result<(), String> {
            self.0.invariants()
        }
    }

    let err = explore(&SwapBeforeBump(EpochSwap::new(1)))
        .expect_err("swapping before bumping must let a stamp outrun the counter");
    assert!(err.message.contains("stamped epoch"), "{err}");
}

// ---------------------------------------------------------------------
// Model 5: EpochCell::update, a serialized load -> derive -> publish.
// ---------------------------------------------------------------------

/// Updater program counter for [`TwoUpdaters`]. The real `update` holds
/// the writer lock from its load through its swap; the swap (bump, then
/// store) is one step here, since Model 4 checks its inner order.
#[derive(Clone, Copy, PartialEq)]
enum UpdaterPc {
    /// Take the writer lock.
    Acquire,
    /// Load the current value.
    Load,
    /// Publish the loaded value plus this updater's batch as the next
    /// epoch.
    Publish,
    /// Drop the writer lock.
    Release,
    Done,
}

/// Two updaters each publish the current value plus their own batch —
/// the shape of two `RoutingService::apply_moves` calls racing. The
/// invariant, at every reachable state: the published value holds one
/// batch per published epoch, so no update was derived from a stale
/// epoch and lost.
#[derive(Clone)]
struct TwoUpdaters {
    epoch: u32,
    /// Bit `t` set: updater `t`'s batch is in the published value.
    batches: u8,
    locked: bool,
    pcs: [UpdaterPc; 2],
    loaded: [u8; 2],
}

impl TwoUpdaters {
    fn new() -> TwoUpdaters {
        TwoUpdaters {
            epoch: 0,
            batches: 0,
            locked: false,
            pcs: [UpdaterPc::Acquire; 2],
            loaded: [0; 2],
        }
    }
}

impl Interleave for TwoUpdaters {
    fn runnable(&self) -> Vec<usize> {
        (0..2)
            .filter(|&t| {
                let pc = self.pcs[t];
                pc != UpdaterPc::Done && !(pc == UpdaterPc::Acquire && self.locked)
            })
            .collect()
    }

    fn step(&mut self, tid: usize) {
        self.pcs[tid] = match self.pcs[tid] {
            UpdaterPc::Acquire => {
                self.locked = true;
                UpdaterPc::Load
            }
            UpdaterPc::Load => {
                self.loaded[tid] = self.batches;
                UpdaterPc::Publish
            }
            UpdaterPc::Publish => {
                self.epoch += 1;
                self.batches = self.loaded[tid] | (1 << tid);
                UpdaterPc::Release
            }
            UpdaterPc::Release => {
                self.locked = false;
                UpdaterPc::Done
            }
            UpdaterPc::Done => unreachable!("a done updater is not runnable"),
        };
    }

    fn done(&self) -> bool {
        self.pcs.iter().all(|&pc| pc == UpdaterPc::Done)
    }

    fn invariants(&self) -> Result<(), String> {
        let held = self.batches.count_ones();
        if held != self.epoch {
            return Err(format!(
                "epoch {} holds {held} batches: an update was lost",
                self.epoch
            ));
        }
        Ok(())
    }
}

#[test]
fn epoch_cell_updates_never_lose_a_batch() {
    let report = explore(&TwoUpdaters::new()).unwrap_or_else(|v| panic!("{v}"));
    assert_explored("two updaters", report);
}

#[test]
fn update_model_catches_an_unserialized_load_derive_publish() {
    /// The same updaters loading, deriving and publishing without the
    /// writer lock — the shape of `apply_moves` as a bare `load` then
    /// `publish`. Both can load epoch 0, and the second publish drops
    /// the first one's batch.
    #[derive(Clone)]
    struct Unserialized(TwoUpdaters);

    impl Interleave for Unserialized {
        fn runnable(&self) -> Vec<usize> {
            self.0.runnable()
        }
        fn step(&mut self, tid: usize) {
            match self.0.pcs[tid] {
                // BUG: no writer lock around the load and the publish.
                UpdaterPc::Acquire => self.0.pcs[tid] = UpdaterPc::Load,
                UpdaterPc::Release => self.0.pcs[tid] = UpdaterPc::Done,
                _ => self.0.step(tid),
            }
        }
        fn done(&self) -> bool {
            self.0.done()
        }
        fn invariants(&self) -> Result<(), String> {
            self.0.invariants()
        }
    }

    let err = explore(&Unserialized(TwoUpdaters::new()))
        .expect_err("an unserialized load-derive-publish must lose an update");
    assert!(err.message.contains("was lost"), "{err}");
}

// ---------------------------------------------------------------------
// Model 6: Admission, the server's connection queue and its close.
// ---------------------------------------------------------------------

/// A race seeded into [`AdmissionClose`], each the shape of a server
/// that kept its stop flag apart from its queue lock.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Race {
    /// `close` marks the queue closed and notifies without the queue
    /// lock, so it can land between a waiter's empty check and its
    /// wait.
    UnlockedClose,
    /// The acceptor checks `closed` before it takes the lock to push.
    UnlockedAcceptCheck,
    /// The `SHUTDOWN` worker writes its ack before it closes the queue.
    AckBeforeClose,
}

/// Acceptor program counter: `Admit` is the whole locked
/// check-and-push; only [`Race::UnlockedAcceptCheck`] splits off
/// `Push`.
#[derive(Clone, Copy, PartialEq)]
enum AcceptorPc {
    Admit,
    Push,
    Done,
}

/// Idle-worker program counter. `Pop` takes the lock and pops an item,
/// leaves on a closed and empty queue, or keeps the lock to `Wait`;
/// `Wait` releases it and parks in one step, as `Condvar::wait` does.
#[derive(Clone, Copy, PartialEq)]
enum PopperPc {
    Pop,
    Wait,
    Done,
}

/// Thread 0 admits one connection, thread 1 closes the queue and then
/// acks `SHUTDOWN` (the real worker leaves its stint afterwards), and
/// thread 2 pops until the queue is closed and empty. The modeled wait
/// has no timeout, so a lost wakeup is a deadlock. Invariants: an ack
/// implies a closed queue, and no admitted connection is still queued
/// once both workers have left.
#[derive(Clone)]
struct AdmissionClose {
    race: Option<Race>,
    /// Held by the idle worker between its empty check and its wait;
    /// every other locked step is a single atomic action.
    locked: bool,
    queued: u32,
    closed: bool,
    acked: bool,
    parked: bool,
    acceptor: AcceptorPc,
    /// Steps the `SHUTDOWN` worker took: close and ack, in its order.
    closer: u8,
    popper: PopperPc,
}

impl AdmissionClose {
    fn new(race: Option<Race>) -> AdmissionClose {
        AdmissionClose {
            race,
            locked: false,
            queued: 0,
            closed: false,
            acked: false,
            parked: false,
            acceptor: AcceptorPc::Admit,
            closer: 0,
            popper: PopperPc::Pop,
        }
    }

    /// Whether the `SHUTDOWN` worker's next step is its close.
    fn closer_closes_next(&self) -> bool {
        let ack_first = self.race == Some(Race::AckBeforeClose);
        (self.closer == 0) != ack_first
    }

    fn push(&mut self) {
        self.queued += 1;
        self.parked = false;
        self.acceptor = AcceptorPc::Done;
    }
}

impl Interleave for AdmissionClose {
    fn runnable(&self) -> Vec<usize> {
        let mut r = Vec::new();
        let acceptor_free = match self.acceptor {
            AcceptorPc::Admit => self.race == Some(Race::UnlockedAcceptCheck) || !self.locked,
            AcceptorPc::Push => !self.locked,
            AcceptorPc::Done => false,
        };
        if acceptor_free {
            r.push(0);
        }
        if self.closer < 2
            && !(self.closer_closes_next() && self.locked && self.race != Some(Race::UnlockedClose))
        {
            r.push(1);
        }
        let popper_free = match self.popper {
            PopperPc::Pop => !self.locked && !self.parked,
            PopperPc::Wait => true,
            PopperPc::Done => false,
        };
        if popper_free {
            r.push(2);
        }
        r
    }

    fn step(&mut self, tid: usize) {
        match tid {
            0 => match self.acceptor {
                AcceptorPc::Admit if self.closed => self.acceptor = AcceptorPc::Done,
                AcceptorPc::Admit if self.race == Some(Race::UnlockedAcceptCheck) => {
                    self.acceptor = AcceptorPc::Push;
                }
                AcceptorPc::Admit | AcceptorPc::Push => self.push(),
                AcceptorPc::Done => unreachable!("a done acceptor is not runnable"),
            },
            1 => {
                if self.closer_closes_next() {
                    self.closed = true;
                    self.parked = false;
                } else {
                    self.acked = true;
                }
                self.closer += 1;
            }
            _ => match self.popper {
                PopperPc::Pop if self.queued > 0 => self.queued -= 1,
                PopperPc::Pop if self.closed => self.popper = PopperPc::Done,
                PopperPc::Pop => {
                    self.locked = true;
                    self.popper = PopperPc::Wait;
                }
                PopperPc::Wait => {
                    self.locked = false;
                    self.parked = true;
                    self.popper = PopperPc::Pop;
                }
                PopperPc::Done => unreachable!("a done worker is not runnable"),
            },
        }
    }

    fn done(&self) -> bool {
        self.acceptor == AcceptorPc::Done && self.closer == 2 && self.popper == PopperPc::Done
    }

    fn invariants(&self) -> Result<(), String> {
        if self.acked && !self.closed {
            return Err("SHUTDOWN acked before the queue closed".to_owned());
        }
        if self.closer == 2 && self.popper == PopperPc::Done && self.queued > 0 {
            return Err(format!(
                "{} admitted connection(s) stranded after every worker left",
                self.queued
            ));
        }
        Ok(())
    }
}

#[test]
fn admission_close_strands_nothing_and_acks_only_when_closed() {
    let report = explore(&AdmissionClose::new(None)).unwrap_or_else(|v| panic!("{v}"));
    assert_explored("admission close", report);
}

#[test]
fn admission_model_catches_each_race_a_split_stop_flag_allows() {
    for (race, named) in [
        (Race::UnlockedClose, "deadlock"),
        (Race::UnlockedAcceptCheck, "stranded"),
        (Race::AckBeforeClose, "acked before"),
    ] {
        let err = explore(&AdmissionClose::new(Some(race)))
            .expect_err("every seeded race must fail the model");
        assert!(err.message.contains(named), "{race:?}: {err}");
        eprintln!("{race:?}: {err}");
    }
}

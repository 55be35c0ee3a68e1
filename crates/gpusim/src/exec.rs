//! The simulator session: allocation, kernel launch, transfer recording.
//!
//! [`Sim`] owns the device, the execution mode and the accumulating
//! [`Profile`]. Drivers (the back substitution and QR crates) allocate
//! buffers through it and issue launches; each launch carries its stage
//! label, grid/block geometry, analytic [`KernelCost`] and a functional
//! body closure.
//!
//! Execution modes:
//!
//! * [`ExecMode::Sequential`] — blocks run one after another on the host
//!   thread. Deterministic; the default for tests.
//! * [`ExecMode::Parallel`] — blocks of one launch run on host threads
//!   (the CUDA contract: disjoint writes per launch). Useful to cut the
//!   wall time of big functional runs.
//! * [`ExecMode::ModelOnly`] — bodies are skipped entirely; only the
//!   analytic cost flows into the profile. This is how the bench harness
//!   reproduces the paper's large dimensions (a 20,480² octo double
//!   matrix would not fit in this machine's RAM, let alone its patience).

use std::sync::OnceLock;

use multidouble::MdScalar;

use crate::buffer::{DeviceBuf, DeviceMat};
use crate::device::Gpu;
use crate::launch::{BlockCtx, KernelCost};
use crate::model;
use crate::profile::Profile;

/// How kernel bodies are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Run blocks sequentially (deterministic).
    Sequential,
    /// Run blocks of a launch on parallel host threads.
    Parallel,
    /// Skip functional execution; account costs only.
    ModelOnly,
}

/// A simulator session on one device.
pub struct Sim {
    gpu: Gpu,
    mode: ExecMode,
    #[expect(
        clippy::disallowed_types,
        reason = "locked to record a launch; no guard escapes"
    )]
    profile: parking_lot::Mutex<Profile>,
    /// Total bytes allocated on the device (for the RAM-swap wall model).
    #[expect(
        clippy::disallowed_types,
        reason = "locked to add bytes; no guard escapes"
    )]
    footprint: parking_lot::Mutex<u64>,
    /// Micro-batching factor: this session carries `instances`
    /// independent same-shaped problem instances. Every launch is
    /// priced as one fused grid of `instances × grid` blocks (see
    /// [`model::fused_kernel_ms`]), allocations and transfers account
    /// `instances ×` their bytes, and per-launch bookkeeping (launch
    /// counts, launch gaps) is paid once per fused launch instead of
    /// once per instance. 1 = the ordinary singleton session.
    instances: usize,
    /// When false this is a *shadow* session: kernel bodies still run
    /// (functional state for one secondary instance of a fused group),
    /// but nothing is accounted — the group's entire cost lives on the
    /// primary batched session.
    accounting: bool,
}

/// The host threads the process can run at once — what an
/// [`ExecMode::Parallel`] launch may use, and what decides whether the
/// pipeline's stream gets a solve-ahead lane — read once per process:
/// `available_parallelism` reads cgroup files on every call (≈ 19 µs on
/// a cgroup-limited Linux container).
pub fn host_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

impl Sim {
    /// Open a session.
    pub fn new(gpu: Gpu, mode: ExecMode) -> Self {
        Sim::batched(gpu, mode, 1)
    }

    /// Open a micro-batched session: the accounting (primary) session
    /// of a fused group of `instances` same-shaped problem instances.
    /// Functional execution on this session carries instance 0; the
    /// analytic accounting covers all `instances` as fused launches.
    /// Secondary instances run on [`Sim::shadow`] sessions.
    #[expect(clippy::disallowed_types, reason = "builds the two locks above")]
    pub fn batched(gpu: Gpu, mode: ExecMode, instances: usize) -> Self {
        assert!(instances > 0, "a fused group needs at least one instance");
        Sim {
            gpu,
            mode,
            profile: parking_lot::Mutex::new(Profile::new()),
            footprint: parking_lot::Mutex::new(0),
            instances,
            accounting: true,
        }
    }

    /// Open a shadow session: a secondary instance of a fused group.
    /// Kernel bodies execute (each instance's blocks of the fused grid
    /// must run for its functional state — block order across instances
    /// is free because fused instances are independent, exactly the
    /// CUDA contract within one launch), but launches, transfers and
    /// overheads record nothing: the whole group is accounted once, on
    /// the primary [`Sim::batched`] session.
    pub fn shadow(gpu: Gpu, mode: ExecMode) -> Self {
        Sim {
            accounting: false,
            ..Sim::new(gpu, mode)
        }
    }

    /// Number of fused problem instances this session accounts for.
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// The device.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Whether kernel bodies actually run.
    pub fn is_functional(&self) -> bool {
        self.mode != ExecMode::ModelOnly
    }

    /// Allocate a device vector of `len` scalars. On a batched session
    /// the footprint charges every fused instance's copy (the group is
    /// device-resident together); the returned buffer holds the primary
    /// instance's data.
    pub fn alloc_vec<S: MdScalar>(&self, len: usize) -> DeviceBuf<S> {
        *self.footprint.lock() += (self.instances * len * S::BYTES) as u64;
        if self.is_functional() {
            DeviceBuf::zeroed(len)
        } else {
            DeviceBuf::unmaterialized(len)
        }
    }

    /// Allocate a device matrix (footprint rules as [`Sim::alloc_vec`]).
    pub fn alloc_mat<S: MdScalar>(&self, rows: usize, cols: usize) -> DeviceMat<S> {
        self.reserve_mat::<S>(rows, cols);
        if self.is_functional() {
            DeviceMat::zeroed(rows, cols)
        } else {
            DeviceMat::unmaterialized(rows, cols)
        }
    }

    /// Charge the footprint of a `rows × cols` matrix allocation without
    /// allocating host storage: [`Sim::alloc_mat`]'s accounting, for a
    /// caller that reuses a matrix it keeps from an earlier allocation.
    pub fn reserve_mat<S: MdScalar>(&self, rows: usize, cols: usize) {
        *self.footprint.lock() += (self.instances * rows * cols * S::BYTES) as u64;
    }

    /// Launch a kernel: `grid` blocks of `threads` threads, attributed to
    /// `stage`, with analytic `cost`; `body` runs once per block.
    pub fn launch<F>(&self, stage: &str, grid: usize, threads: usize, cost: KernelCost, body: F)
    where
        F: Fn(BlockCtx) + Sync,
    {
        self.launch_counted(stage, grid, threads, cost, 1, body)
    }

    /// Like [`Sim::launch`], but counted as `count_as` kernel launches.
    ///
    /// The paper's Algorithm 1 counts every `b_j := b_j − A_{j,i} x_i`
    /// update as its own launch (`1 + N(N+1)/2` in total) while the
    /// updates of one step execute simultaneously; this method keeps the
    /// occupancy of the batched execution but attributes the per-launch
    /// bookkeeping (launch count, wall-clock launch gaps) `count_as`
    /// times.
    pub fn launch_counted<F>(
        &self,
        stage: &str,
        grid: usize,
        threads: usize,
        cost: KernelCost,
        count_as: u64,
        body: F,
    ) where
        F: Fn(BlockCtx) + Sync,
    {
        match self.mode {
            ExecMode::ModelOnly => {}
            ExecMode::Sequential => {
                for b in 0..grid {
                    body(BlockCtx {
                        block: b,
                        grid,
                        threads,
                    });
                }
            }
            ExecMode::Parallel => {
                let workers = host_workers().min(grid.max(1));
                if workers <= 1 || grid <= 1 {
                    for b in 0..grid {
                        body(BlockCtx {
                            block: b,
                            grid,
                            threads,
                        });
                    }
                } else {
                    // the block cursor: one fetch_add per block, not
                    // per element
                    #[expect(clippy::disallowed_types, reason = "the executor's work cursor")]
                    let next = std::sync::atomic::AtomicUsize::new(0);
                    let body = &body;
                    let next = &next;
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the simulator's block executor owns its threads"
                    )]
                    std::thread::scope(|scope| {
                        for _ in 0..workers {
                            scope.spawn(move || loop {
                                let b = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if b >= grid {
                                    break;
                                }
                                body(BlockCtx {
                                    block: b,
                                    grid,
                                    threads,
                                });
                            });
                        }
                    });
                }
            }
        }
        self.account_launch(stage, grid, threads, &cost, count_as);
    }

    /// Price and count a launch whose output is already in place — the
    /// same kernel ran before on operands that have not changed since,
    /// so running its body again would rewrite the same bits. The
    /// profile records exactly what [`Sim::launch`] records; no body
    /// runs.
    pub fn launch_cached(&self, stage: &str, grid: usize, threads: usize, cost: KernelCost) {
        self.account_launch(stage, grid, threads, &cost, 1);
    }

    fn account_launch(
        &self,
        stage: &str,
        grid: usize,
        threads: usize,
        cost: &KernelCost,
        count_as: u64,
    ) {
        if !self.accounting {
            return; // shadow session: the primary accounts the group
        }
        // a batched session prices the launch as one fused grid over
        // all instances: work and traffic scale by the instance count,
        // occupancy is computed over the fused grid, and the kernel
        // base — like the launch count and gap below — is paid once per
        // fused launch, not once per instance
        let fused = cost.scaled(self.instances as u64);
        let ms = model::fused_kernel_ms(&self.gpu, self.instances, grid, threads, cost);
        let mut p = self.profile.lock();
        // the batched launch stands for `count_as` logical launches
        p.record(
            stage,
            count_as,
            ms,
            fused.ops,
            fused.flops_paper,
            fused.flops_measured,
            fused.bytes,
        );
        p.launch_gap_ms += model::launch_gap_ms(&self.gpu, count_as);
    }

    /// Record a host-to-device or device-to-host transfer of `bytes`
    /// *per instance*: a batched session moves every fused instance's
    /// copy in one grouped transfer, so the recorded traffic scales by
    /// the instance count while the call — like the host-side
    /// bookkeeping it stands for — happens once per group. Shadow
    /// sessions record nothing.
    pub fn record_transfer(&self, bytes: u64) {
        if !self.accounting {
            return;
        }
        let bytes = bytes * self.instances as u64;
        let fp = *self.footprint.lock();
        let ms = model::transfer_ms(&self.gpu, bytes, fp);
        let mut p = self.profile.lock();
        p.transfer_ms += ms;
        p.transfer_bytes += bytes;
    }

    /// Record fixed host-side overhead once per driver invocation — on
    /// a batched session that is once per fused *group* (the
    /// amortization micro-batching exists for). Shadow sessions record
    /// nothing.
    pub fn record_host_overhead(&self) {
        if !self.accounting {
            return;
        }
        self.profile.lock().host_ms += self.gpu.host_overhead_ms;
    }

    /// Snapshot the accumulated profile.
    pub fn profile(&self) -> Profile {
        self.profile.lock().clone()
    }

    /// Clear the profile (keeps allocations and footprint).
    pub fn reset_profile(&self) {
        *self.profile.lock() = Profile::new();
    }

    /// Current device memory footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        *self.footprint.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Dd, OpCounts};

    fn fill_kernel(sim: &Sim, buf: &DeviceBuf<Dd>, grid: usize, threads: usize) {
        let n = buf.len();
        sim.launch(
            "fill",
            grid,
            threads,
            KernelCost::of::<Dd>(
                OpCounts {
                    add: n as u64,
                    ..OpCounts::ZERO
                },
                0,
                n as u64,
            ),
            |ctx| {
                for t in ctx.thread_ids() {
                    let i = ctx.global_tid(t);
                    if i < n {
                        buf.set(i, Dd::from_f64(i as f64) + Dd::from_f64(0.5));
                    }
                }
            },
        );
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let n = 1000;
        let seq = Sim::new(Gpu::v100(), ExecMode::Sequential);
        let bs = seq.alloc_vec::<Dd>(n);
        fill_kernel(&seq, &bs, 8, 128);

        let par = Sim::new(Gpu::v100(), ExecMode::Parallel);
        let bp = par.alloc_vec::<Dd>(n);
        fill_kernel(&par, &bp, 8, 128);

        assert_eq!(bs.download(), bp.download());
        // identical analytic accounting regardless of execution mode
        assert_eq!(
            seq.profile().all_kernels_ms(),
            par.profile().all_kernels_ms()
        );
    }

    #[test]
    fn model_only_skips_bodies_but_counts() {
        let sim = Sim::new(Gpu::v100(), ExecMode::ModelOnly);
        let buf = sim.alloc_vec::<Dd>(10);
        assert!(!buf.is_materialized());
        let mut ran = false;
        // body must not run
        sim.launch(
            "noop",
            1,
            32,
            KernelCost::of::<Dd>(OpCounts::ZERO, 0, 0),
            |_| {
                // (would set `ran`, but the closure is Fn; use a panic)
                panic!("body executed in ModelOnly");
            },
        );
        ran |= false;
        assert!(!ran);
        assert_eq!(sim.profile().total_launches(), 1);
    }

    #[test]
    fn cached_launch_records_what_the_launch_records() {
        let ran = Sim::batched(Gpu::v100(), ExecMode::Sequential, 3);
        let cached = Sim::batched(Gpu::v100(), ExecMode::Sequential, 3);
        let buf = ran.alloc_vec::<Dd>(64);
        fill_kernel(&ran, &buf, 2, 32);
        cached.reserve_mat::<Dd>(8, 8);
        let ops = OpCounts {
            add: 64,
            ..OpCounts::ZERO
        };
        cached.launch_cached("fill", 2, 32, KernelCost::of::<Dd>(ops, 0, 64));
        let (p, q) = (ran.profile(), cached.profile());
        assert_eq!(format!("{q:?}"), format!("{p:?}"));
        assert_eq!(cached.footprint_bytes(), ran.footprint_bytes());
    }

    #[test]
    fn footprint_accumulates() {
        let sim = Sim::new(Gpu::v100(), ExecMode::ModelOnly);
        let _a = sim.alloc_vec::<Dd>(100); // 1600 bytes
        let _m = sim.alloc_mat::<Dd>(10, 10); // 1600 bytes
        assert_eq!(sim.footprint_bytes(), 3200);
    }

    #[test]
    fn transfer_recorded() {
        let sim = Sim::new(Gpu::v100(), ExecMode::ModelOnly);
        sim.record_transfer(10 * (1 << 30)); // 10 GB over 5 GB/s ~ 2000 ms
        let p = sim.profile();
        assert!(p.transfer_ms > 1900.0 && p.transfer_ms < 2400.0);
    }

    #[test]
    fn batched_session_prices_fused_launches() {
        let n = 64;
        let k = 16;
        let single = Sim::new(Gpu::v100(), ExecMode::ModelOnly);
        let bs = single.alloc_vec::<Dd>(n);
        fill_kernel(&single, &bs, 2, 32);
        let fused = Sim::batched(Gpu::v100(), ExecMode::ModelOnly, k);
        let bf = fused.alloc_vec::<Dd>(n);
        fill_kernel(&fused, &bf, 2, 32);

        let ps = single.profile();
        let pf = fused.profile();
        // all instances' work is accounted...
        assert_eq!(pf.total_flops_paper(), k as f64 * ps.total_flops_paper());
        assert_eq!(pf.total_bytes(), k as u64 * ps.total_bytes());
        // ...in ONE fused launch with one launch gap
        assert_eq!(pf.total_launches(), ps.total_launches());
        assert_eq!(pf.launch_gap_ms, ps.launch_gap_ms);
        // per-instance kernel time improves by far more than the
        // instance count alone would explain away: occupancy of the
        // 2-block singleton grid was 2/80 of a wave
        assert!(pf.all_kernels_ms() < ps.all_kernels_ms() * k as f64 / 2.0);
        // grouped allocations and transfers charge every instance
        assert_eq!(fused.footprint_bytes(), k as u64 * single.footprint_bytes());
        single.record_transfer(1 << 20);
        fused.record_transfer(1 << 20);
        assert_eq!(
            fused.profile().transfer_bytes,
            k as u64 * single.profile().transfer_bytes
        );
    }

    #[test]
    fn batched_of_one_is_the_ordinary_session() {
        let a = Sim::new(Gpu::v100(), ExecMode::Sequential);
        let b = Sim::batched(Gpu::v100(), ExecMode::Sequential, 1);
        let ba = a.alloc_vec::<Dd>(100);
        let bb = b.alloc_vec::<Dd>(100);
        fill_kernel(&a, &ba, 4, 32);
        fill_kernel(&b, &bb, 4, 32);
        assert_eq!(ba.download(), bb.download());
        assert_eq!(a.profile().all_kernels_ms(), b.profile().all_kernels_ms());
        assert_eq!(a.footprint_bytes(), b.footprint_bytes());
    }

    #[test]
    fn shadow_session_executes_but_records_nothing() {
        let sim = Sim::shadow(Gpu::v100(), ExecMode::Sequential);
        let buf = sim.alloc_vec::<Dd>(50);
        fill_kernel(&sim, &buf, 2, 32);
        // functional state is real...
        assert_eq!(buf.get(7), Dd::from_f64(7.0) + Dd::from_f64(0.5));
        // ...but the profile never saw the launch, transfer or overhead
        sim.record_transfer(1 << 20);
        sim.record_host_overhead();
        let p = sim.profile();
        assert_eq!(p.total_launches(), 0);
        assert_eq!(p.wall_ms(), 0.0);
        assert_eq!(p.transfer_bytes, 0);
    }
}

//! Frozen input generators of the four workloads.
//!
//! Everything the program receives is built here from `--seed` and
//! literals: shapes, arrival periods, thresholds and tenant contracts
//! are constants of this file, never read from `Planner` predictions
//! or `mdls_pipeline::workload`, so a cost-model or generator change
//! in the program cannot silently change what the benchmark submits.
//! `--seed` reseeds matrix entries, right-hand sides and the fault
//! schedule; shapes, targets and release times stay put. Every
//! workload carries an [`Inputs::digest`] over shapes, release times
//! and leading matrix bits so two commits can be shown to have run the
//! same input.

use gpusim::{FaultPlan, Gpu};
use mdls_matrix::HostMat;
use mdls_pipeline::{
    Backpressure, BreakerConfig, DevicePool, ExecutionMode, Job, OverloadConfig, ServiceConfig,
    ServicePolicy, SloClass, TenantId, TenantSpec,
};
use multidouble::{Dd, MdScalar, Od, Qd};
use rand::RngCore;

/// The four workloads, in report order.
pub const WORKLOADS: [&str; 4] = [
    "service_model",
    "tracker_stream",
    "batch_refine",
    "ladder_direct",
];

/// SplitMix64 stream owned by the benchmark: the vendored `rand`
/// shim's `StdRng` may be swapped for upstream one day
/// (`vendor/README.md`), and the inputs must not move with it.
pub struct Frozen(u64);

impl Frozen {
    pub fn new(seed: u64, stream: u64) -> Frozen {
        Frozen(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl RngCore for Frozen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Stateless hash of an index: picks shapes from the literal tables
/// below without touching `--seed`.
fn pick(index: u64, salt: u64, n: usize) -> usize {
    (Frozen::new(index, salt).next_u64() % n as u64) as usize
}

/// FNV-1a over 64-bit words: input digests here, outcome digests in
/// the runner.
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn job(&mut self, j: &Job) {
        self.word(j.rows() as u64);
        self.word(j.cols() as u64);
        self.word(j.target_digits as u64);
        self.word(j.priority as u64);
        self.word(j.release().to_bits());
        self.word(j.deadline_ms.unwrap_or(-1.0).to_bits());
        self.word(j.tenant.0 as u64);
        self.word(j.a.get(0, 0).to_bits());
        self.word(j.b[0].to_bits());
    }
}

/// A diagonally dominant random system whose right-hand side lies
/// exactly in the column space (entries quantized to 2⁻²⁰, integer
/// solution), so every rung of the ladder can certify its target.
fn well_conditioned(rows: usize, cols: usize, rng: &mut Frozen) -> (HostMat<f64>, Vec<f64>) {
    let a = HostMat::<f64>::from_fn(rows, cols, |r, c| {
        let q = ((2.0 * rng.unit() - 1.0) * (1 << 20) as f64).round() / (1 << 20) as f64;
        q + if r == c { 4.0 } else { 0.0 }
    });
    let x_true: Vec<f64> = (0..cols)
        .map(|_| ((2.0 * rng.unit() - 1.0) * 8.0).round())
        .collect();
    let b = a.matvec(&x_true);
    (a, b)
}

/// One direct solve of `ladder_direct`, at its rung.
pub enum LadderSolve {
    Dd(HostMat<Dd>, Vec<Dd>),
    Qd(HostMat<Qd>, Vec<Qd>),
    Od(HostMat<Od>, Vec<Od>),
}

/// What one workload submits.
pub enum Payload {
    /// Jobs and tenant contracts for `serve`.
    Service {
        jobs: Vec<Job>,
        specs: Vec<TenantSpec>,
        cfg: ServiceConfig,
        fault: FaultPlan,
    },
    /// Jobs for `solve_stream_staged`, in arrival order.
    Stream { jobs: Vec<Job> },
    /// Jobs for `solve_batch_staged_with`.
    Batch { jobs: Vec<Job> },
    /// Systems for plain `lstsq`.
    Ladder { solves: Vec<LadderSolve> },
}

pub struct Inputs {
    pub payload: Payload,
    /// 64-bit digest of shapes, release times and leading matrix bits.
    pub digest: u64,
}

// ---------------------------------------------------------------------
// service_model
// ---------------------------------------------------------------------

/// Jobs per repetition.
pub const SERVICE_JOBS: usize = 200_000;
/// Pool size: the paper's 4-GPU node.
pub const SERVICE_DEVICES: usize = 4;
/// Burster wave: this many jobs land at one instant.
pub const WAVE: usize = 200;
/// The burster's tenant id.
const BURSTER: TenantId = TenantId(5);
/// Ten jobs (8 steady + 2 burster) arrive per block. An 8×8 job costs
/// ≈ 12.6 sim-ms on the V100 model at the parent commit, so 8 steady
/// jobs per 33.6 ms offer ≈ 75 % of four devices.
const BLOCK_PERIOD_MS: f64 = 33.6;
/// Overload ladder: best-effort jobs degrade past ≈ 16 queued jobs per
/// device (a burster wave gets there), and are shed past ≈ 120 (a
/// healthy pool never does).
const DEGRADE_BACKLOG_MS: f64 = 200.0;
const SHED_BACKLOG_MS: f64 = 1510.0;
/// Breaker: 3 transient faults inside 100 ms quarantine the device for
/// 250 ms (doubling per re-open).
const BREAKER_WINDOW_MS: f64 = 100.0;
const BREAKER_BACKOFF_MS: f64 = 250.0;
/// Mean gap of device 1's transient-fault schedule: sparse enough
/// that the breaker trips a few dozen times, not permanently.
const FAULT_GAP_MS: f64 = 400.0;

pub fn service_model(seed: u64, jobs_total: usize) -> Inputs {
    let mut rng = Frozen::new(seed, 1);
    let mut digest = Digest::new();
    let wave_gap = BLOCK_PERIOD_MS * (WAVE / 2) as f64;
    let mut jobs = Vec::with_capacity(jobs_total);
    for i in 0..jobs_total {
        let block = (i / 10) as f64;
        let (tenant, slo, digits, release) = match i % 10 {
            0 | 1 => (1, SloClass::Premium, 40, block * BLOCK_PERIOD_MS),
            2..=4 => (2, SloClass::Standard, 25, block * BLOCK_PERIOD_MS),
            5 => (3, SloClass::Standard, 40, (block + 0.5) * BLOCK_PERIOD_MS),
            6 => (3, SloClass::Standard, 25, block * BLOCK_PERIOD_MS),
            7 => (4, SloClass::BestEffort, 25, block * BLOCK_PERIOD_MS),
            // the adversary: its allotment lands in instantaneous waves
            _ => (
                BURSTER.0,
                SloClass::BestEffort,
                25,
                (i / (WAVE * 5)) as f64 * wave_gap,
            ),
        };
        let n = 8;
        let a = HostMat::<f64>::from_fn(n, n, |r, c| {
            2.0 * rng.unit() - 1.0 + if r == c { 4.0 } else { 0.0 }
        });
        let b: Vec<f64> = (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect();
        let job = Job::new(i as u64, a, b, digits)
            .with_tenant(TenantId(tenant))
            .with_slo(slo)
            .with_release_ms(release);
        digest.job(&job);
        jobs.push(job);
    }
    let steady = |id, name, weight| {
        TenantSpec::new(TenantId(id), name)
            .with_weight(weight)
            .with_queue(512, Backpressure::Block)
    };
    let specs = vec![
        steady(1, "premium", 4),
        steady(2, "std-a", 2),
        steady(3, "std-b", 2),
        steady(4, "batch", 1),
        TenantSpec::new(BURSTER, "burster").with_queue(WAVE / 2, Backpressure::ShedOldest),
    ];
    let cfg = ServiceConfig {
        policy: ServicePolicy::WeightedFair,
        mode: ExecutionMode::ModelOnly,
        overload: OverloadConfig::thresholds(DEGRADE_BACKLOG_MS, SHED_BACKLOG_MS),
        breaker: BreakerConfig {
            enabled: true,
            window_ms: BREAKER_WINDOW_MS,
            max_faults: 3,
            backoff_ms: BREAKER_BACKOFF_MS,
        },
        host_workers: 1,
        ..ServiceConfig::default()
    };
    let horizon = (jobs_total / 10) as f64 * BLOCK_PERIOD_MS * 1.5 + 100.0;
    let fault_seed = Frozen::new(seed, 2).next_u64();
    digest.word(fault_seed);
    Inputs {
        payload: Payload::Service {
            jobs,
            specs,
            cfg,
            fault: FaultPlan::seeded(fault_seed, horizon, FAULT_GAP_MS),
        },
        digest: digest.0,
    }
}

/// A fresh 4×V100 pool with the seeded transient schedule on device 1.
pub fn service_pool(fault: &FaultPlan) -> DevicePool {
    let mut pool = DevicePool::homogeneous(&Gpu::v100(), SERVICE_DEVICES);
    pool.set_fault_plan(1, fault.clone());
    pool
}

// ---------------------------------------------------------------------
// tracker_stream
// ---------------------------------------------------------------------

/// Jobs per repetition.
pub const TRACKER_JOBS: usize = 8_000;
/// One path step emits this many solves together.
pub const TRACKER_BURST: usize = 12;
/// Reorder window of the stream (one burst).
pub const TRACKER_WINDOW: usize = 12;
/// Sim-ms between bursts.
pub const TRACKER_GAP_MS: f64 = 50.0;
/// A corrector must land before the tracker's next step.
const TRACKER_DEADLINE_MS: f64 = 50.0;
const TRACKER_COLS: [usize; 6] = [6, 8, 10, 12, 16, 24];
const TRACKER_EXTRA_ROWS: [usize; 3] = [0, 4, 8];
const PREDICTOR_DIGITS: [u32; 3] = [10, 12, 14];
const CORRECTOR_DIGITS: [u32; 4] = [25, 25, 50, 100];

/// Bursty predictor/corrector solves of a path tracker: every burst is
/// one step of one path, so its systems share a shape (a tracker's
/// Jacobian structure is fixed along a path) while values differ;
/// every third solve is a priority-1 corrector with a deadline.
pub fn tracker_stream(seed: u64, jobs_total: usize) -> Inputs {
    let mut rng = Frozen::new(seed, 3);
    let mut digest = Digest::new();
    let mut jobs = Vec::with_capacity(jobs_total);
    for i in 0..jobs_total {
        let burst = (i / TRACKER_BURST) as u64;
        let cols = TRACKER_COLS[pick(burst, 11, TRACKER_COLS.len())];
        let rows = cols + TRACKER_EXTRA_ROWS[pick(burst, 12, TRACKER_EXTRA_ROWS.len())];
        let release = burst as f64 * TRACKER_GAP_MS;
        let (a, b) = well_conditioned(rows, cols, &mut rng);
        let job = if i % 3 == 2 {
            let digits = CORRECTOR_DIGITS[pick(burst, 13, CORRECTOR_DIGITS.len())];
            Job::new(i as u64, a, b, digits)
                .with_priority(1)
                .with_deadline_ms(release + TRACKER_DEADLINE_MS)
        } else {
            let digits = PREDICTOR_DIGITS[pick(burst, 14, PREDICTOR_DIGITS.len())];
            Job::new(i as u64, a, b, digits)
        }
        .with_release_ms(release);
        digest.job(&job);
        jobs.push(job);
    }
    Inputs {
        payload: Payload::Stream { jobs },
        digest: digest.0,
    }
}

// ---------------------------------------------------------------------
// batch_refine
// ---------------------------------------------------------------------

/// `(rows, cols, target digits)` of the refinement mix; submitted twice.
pub const REFINE_SHAPES: [(usize, usize, u32); 6] = [
    (64, 64, 30),
    (128, 96, 50),
    (128, 128, 90),
    (224, 192, 100),
    (192, 192, 50),
    (160, 128, 30),
];

/// Mixed-precision refinement on mid-size matrices, everything
/// arriving at t = 0: `copies` repeats of `shapes`.
pub fn batch_refine(seed: u64, shapes: &[(usize, usize, u32)], copies: usize) -> Inputs {
    let mut rng = Frozen::new(seed, 4);
    let mut digest = Digest::new();
    let mut jobs = Vec::new();
    for copy in 0..copies {
        for (k, &(rows, cols, digits)) in shapes.iter().enumerate() {
            let (a, b) = well_conditioned(rows, cols, &mut rng);
            let job = Job::new((copy * shapes.len() + k) as u64, a, b, digits);
            digest.job(&job);
            jobs.push(job);
        }
    }
    Inputs {
        payload: Payload::Batch { jobs },
        digest: digest.0,
    }
}

/// The heterogeneous pool of `batch_refine`: two device queues, so two
/// host threads in the parallel executor.
pub fn refine_pool() -> DevicePool {
    DevicePool::new(vec![Gpu::v100(), Gpu::p100()])
}

// ---------------------------------------------------------------------
// ladder_direct
// ---------------------------------------------------------------------

/// Dimension of every ladder solve: 4 tiles of 16.
pub const LADDER_DIM: usize = 64;
pub const LADDER_TILES: usize = 4;
/// Solves per repetition at dd / qd / od.
pub const LADDER_MIX: (usize, usize, usize) = (16, 2, 1);

fn ladder_system<S: MdScalar>(
    dim: usize,
    rng: &mut Frozen,
    digest: &mut Digest,
) -> (HostMat<S>, Vec<S>) {
    let a = HostMat::<S>::random(dim, dim, rng);
    let x_true: Vec<S> = (0..dim).map(|_| S::rand(rng)).collect();
    let b = a.matvec(&x_true);
    digest.word(dim as u64);
    digest.word(S::PLANES as u64);
    digest.word(a.get(0, 0).plane(0).to_bits());
    digest.word(b[0].plane(0).to_bits());
    (a, b)
}

/// The paper's core experiment: `mix` solves at dd, qd and od on
/// distinct seeded random `dim × dim` matrices (entropy in every limb).
pub fn ladder_direct(seed: u64, mix: (usize, usize, usize), dim: usize) -> Inputs {
    let mut rng = Frozen::new(seed, 5);
    let mut digest = Digest::new();
    let mut solves = Vec::new();
    for _ in 0..mix.0 {
        let (a, b) = ladder_system::<Dd>(dim, &mut rng, &mut digest);
        solves.push(LadderSolve::Dd(a, b));
    }
    for _ in 0..mix.1 {
        let (a, b) = ladder_system::<Qd>(dim, &mut rng, &mut digest);
        solves.push(LadderSolve::Qd(a, b));
    }
    for _ in 0..mix.2 {
        let (a, b) = ladder_system::<Od>(dim, &mut rng, &mut digest);
        solves.push(LadderSolve::Od(a, b));
    }
    Inputs {
        payload: Payload::Ladder { solves },
        digest: digest.0,
    }
}

/// Build one workload's inputs. `quick` cuts sizes about twentyfold
/// (job counts / 20, the two smallest refinement shapes, a 16×16
/// ladder); its numbers are not comparable with full-size runs.
pub fn generate(workload: &str, seed: u64, quick: bool) -> Option<Inputs> {
    Some(match (workload, quick) {
        ("service_model", false) => service_model(seed, SERVICE_JOBS),
        ("service_model", true) => service_model(seed, SERVICE_JOBS / 20),
        ("tracker_stream", false) => tracker_stream(seed, TRACKER_JOBS),
        ("tracker_stream", true) => tracker_stream(seed, TRACKER_JOBS / 20),
        ("batch_refine", false) => batch_refine(seed, &REFINE_SHAPES, 2),
        ("batch_refine", true) => batch_refine(seed, &REFINE_SHAPES[..2], 1),
        ("ladder_direct", false) => ladder_direct(seed, LADDER_MIX, LADDER_DIM),
        ("ladder_direct", true) => ladder_direct(seed, (2, 1, 1), 16),
        _ => return None,
    })
}

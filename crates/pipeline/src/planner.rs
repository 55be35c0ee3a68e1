//! The planner: cost-model-driven *plan search* over staged execution
//! plans.
//!
//! For a job `(m, n, target digits)` the planner no longer just picks a
//! precision rung and a tiling — it searches over [`ExecPlan`]
//! *structures*:
//!
//! * **direct plans** — `[Factor(r), Correct(r)]` at every rung `r` of
//!   the d → dd → qd → od ladder whose digits cover the target;
//! * **refinement plans** — factor at a cheap rung `r`, then iterate
//!   `[Residual(r′), Correct(r)]` pairs at the target rung `r′ > r`
//!   until the accuracy model says the digits are met (classic
//!   mixed-precision iterative refinement: the O(m·n²) factorization
//!   runs at the cheap rung; each pass adds only an O(m·n) residual and
//!   an O(m·n + n²) re-solve).
//!
//! Each candidate's stages are priced by the analytic cost models of a
//! `k`-instance fused group ([`mdls_core::lstsq_batched_model_profiles`],
//! [`mdls_core::residual_model_profile_batched`]; a lone job is the
//! group of one) and composed through [`Profile::absorb`] into a
//! [`FusedProfile`] — per-stage walls and totals; the per-kernel
//! tables never outlive the miss that built them. The cheapest
//! predicted wall clock wins. The
//! accuracy model is deliberately conservative: a factorization at rung
//! `r` is credited `r.digits()` correct digits per solve, accumulated
//! per pass and capped at the residual rung's `r′.digits()` — both
//! already discounted below the respective unit roundoffs.
//!
//! **Placement invariance.** Plan *structure* — rungs, pass count, and
//! tilings (which fix the arithmetic: the tiled back substitution
//! inverts diagonal tiles, so two tilings of one system round
//! differently) — is tuned once per `(rows, cols, target digits)` on a
//! fixed reference model (the paper's V100) and reused on every device;
//! only the per-stage *timings* are re-priced per device model. A job's
//! solution is then bit-identical no matter which device the scheduler
//! picks — the guarantee the scheduling policies and the priority
//! stream rely on. (Tilings were once re-tuned per device, which
//! silently broke that guarantee on heterogeneous pools; a
//! device-dependent direct-vs-refinement choice would break it far
//! worse.)
//!
//! Plans are memoized per `(device, rows, cols, target digits)`: a
//! batch of thousands of same-shaped jobs plans once, and every later
//! request for the plan shares the memo's `Arc` instead of copying it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use gpusim::{ExecMode, Gpu, Profile};
use mdls_core::{lstsq_batched_model_profiles, residual_model_profile_batched, LstsqOptions};
use mdls_obs::{Event, Observer};
use multidouble::{Dd, Od, Qd};

use crate::job::Precision;
use crate::plan::{ExecPlan, FusedProfile, Stage};

/// Hard ceiling on refinement passes: beyond a handful of corrections
/// the accuracy model's per-pass credit stops being trustworthy (and
/// the launch overhead eats the flop savings anyway). Candidates that
/// cannot reach their target within this many passes are discarded.
pub const MAX_CORRECTIONS: usize = 4;

#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    device: &'static str,
    /// Timing-model fingerprint: `Gpu` fields are public, so two
    /// same-named devices may carry different calibration constants
    /// (e.g. a derated clone) and must not share cached plans.
    device_fp: u64,
    rows: usize,
    cols: usize,
    target_digits: u32,
    /// Direct-only plans (the refinement A/B baseline) are cached
    /// separately from searched plans.
    direct_only: bool,
}

/// Mix every timing-relevant device constant into one word.
fn device_fingerprint(gpu: &Gpu) -> u64 {
    let mut h: u64 = gpu.multiprocessors as u64 ^ ((gpu.cores_per_mp as u64) << 16);
    for f in [
        gpu.ghz,
        gpu.peak_dp_gflops,
        gpu.mem_bw_gbs,
        gpu.pcie_gbs,
        gpu.host_ram_gb,
        gpu.launch_gap_us,
        gpu.kernel_base_us,
        gpu.mem_eff,
        gpu.ilp_base,
        gpu.ilp_slope,
        gpu.host_overhead_ms,
    ] {
        h = h.rotate_left(7) ^ f.to_bits();
    }
    h
}

impl PlanKey {
    fn new(gpu: &Gpu, rows: usize, cols: usize, target_digits: u32, direct_only: bool) -> Self {
        PlanKey {
            device: gpu.name,
            device_fp: device_fingerprint(gpu),
            rows,
            cols,
            target_digits,
            direct_only,
        }
    }
}

/// A plan structure chosen on the reference model: the stage sequence
/// (not yet priced for any particular device), the digits the
/// accuracy model credits it, and the passes the optimistic posterior
/// expects execution to actually run (≤ the structural pass count).
type Strategy = (Vec<Stage>, u32, usize);

/// Optimistic digits-per-pass headroom of the expected-pass posterior:
/// the conservative accuracy model credits a rung a couple of digits
/// under its unit roundoff per pass; measured passes on well-behaved
/// systems land near the roundoff. Booking against the optimistic
/// estimate and re-booking online when execution diverges beats
/// booking the worst case and refunding after the fact.
const EXPECTED_DIGITS_SLACK: u32 = 2;

/// Memo key of a fused-priced plan: the singleton plan key plus the
/// fused-group size.
type FusedKey = (PlanKey, usize);

/// Memo key of a preferred-group-size query: shape, target, cap, and
/// the tolerance bits (callers may sweep tolerances).
type GroupKey = (usize, usize, u32, usize, u64);

/// The memos' hash: one multiply-rotate step per machine word
/// (`FxHash`'s mix). Memo keys are job shapes and device names. Every
/// new key costs a planner miss — model evaluations that dwarf any
/// probe chain a colliding key set could lengthen — so SipHash's
/// flooding protection buys nothing here, while its setup cost a
/// measurable share of a warm hit. The hash is unseeded, but no memo is
/// ever iterated, so it cannot move an order.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// One get-or-compute table. Every planner memo follows the same
/// discipline: clone the hit out under the lock, compute a miss
/// *outside* it (model evaluation is the slow part — holding the mutex
/// would serialize all concurrent planning, and an emit under it hands
/// every observer a re-entrancy deadlock — why `clippy.toml` disallows
/// `Mutex` outside owners that never hand a guard out), then
/// insert through `entry` so a racing thread's result is never
/// clobbered. Racing threads may duplicate a computation, but every
/// value is deterministic, so whichever lands first wins and both
/// callers return the stored entry.
struct Memo<K, V>(
    #[expect(
        clippy::disallowed_types,
        reason = "a memo never hands its guard out, so no emit can run under it"
    )]
    std::sync::Mutex<HashMap<K, V, BuildHasherDefault<WordHasher>>>,
);

/// A memo lock is never held across a computation, so only a panic
/// inside `HashMap` itself could poison one.
const POISONED: &str = "planner memo lock poisoned";

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    #[expect(clippy::disallowed_types, reason = "builds the memo's lock")]
    fn new() -> Self {
        Memo(std::sync::Mutex::new(HashMap::default()))
    }

    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = compute();
        self.0
            .lock()
            .expect(POISONED)
            .entry(key)
            .or_insert(v)
            .clone()
    }

    /// The stored value, if any: a read that never computes or inserts
    /// (the guard is dropped before it returns).
    fn get(&self, key: &K) -> Option<V> {
        self.0.lock().expect(POISONED).get(key).cloned()
    }

    fn len(&self) -> usize {
        self.0.lock().expect(POISONED).len()
    }
}

/// A memoizing planner. One planner is shared by a whole batch run.
/// Plans and fused pricings are handed out as `Arc`s of the memo's
/// entry: a warm hit copies no stage list.
pub struct Planner {
    cache: Memo<PlanKey, Arc<ExecPlan>>,
    /// Canonical tilings `(tiles, tile_size)` per `(rows, cols,
    /// precision)` — device-free, because the tiling fixes the
    /// arithmetic (see module docs).
    tilings: Memo<(usize, usize, Precision), (usize, usize)>,
    strategies: Memo<(usize, usize, u32), Strategy>,
    fused: Memo<FusedKey, Arc<FusedProfile>>,
    group_sizes: Memo<GroupKey, usize>,
    /// The numerics reference model the plan structure is tuned on.
    reference: Gpu,
    /// Optional event sink: cache probes, candidate counts and group
    /// formation emit through it. Observability is inert — the
    /// observer never feeds back into the search.
    observer: Option<Arc<dyn Observer>>,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

/// Hard ceiling on the tile size: one tile is one thread block, and no
/// modeled device launches blocks wider than CUDA's 1024-thread limit.
pub const MAX_TILE_SIZE: usize = 1024;

/// Candidate tile sizes: *every* divisor of the column count up to
/// [`MAX_TILE_SIZE`], largest first. Only divisors are usable (the
/// tiling must satisfy `N · n = cols` exactly), and no candidate
/// exceeds the block limit; the single-tile configuration is a
/// candidate whenever it fits in one block.
///
/// A fixed preferred-size list is not enough: `cols = 1366 = 2 · 683`
/// has the perfectly launchable 683-wide tile that no power-of-two-ish
/// shortlist contains, leaving only {2, 1} and a silently terrible
/// plan. Divisor enumeration is O(min(cols, 1024)) per *uncached* plan
/// — noise next to the model evaluations it feeds.
pub fn tile_candidates(cols: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (1..=cols.min(MAX_TILE_SIZE))
        .filter(|&d| cols.is_multiple_of(d))
        .rev()
        .collect();
    // tile size 1 always divides, so the list is never empty; keep the
    // search bounded for highly composite widths (divisors are already
    // largest-first, and the model never favors the tiniest tiles)
    v.truncate(24);
    v
}

/// Model profiles `(factor, correct)` of one direct stage pair at
/// `rung` — the paper's QR and back-substitution phases — over a
/// `k`-instance micro-batched group (`k = 1`: a lone job).
fn phase_profiles(
    gpu: &Gpu,
    rung: Precision,
    k: usize,
    rows: usize,
    opts: &LstsqOptions,
) -> (Profile, Profile) {
    match rung {
        Precision::D1 => lstsq_batched_model_profiles::<f64>(gpu, k, rows, opts),
        Precision::D2 => lstsq_batched_model_profiles::<Dd>(gpu, k, rows, opts),
        Precision::D4 => lstsq_batched_model_profiles::<Qd>(gpu, k, rows, opts),
        Precision::D8 => lstsq_batched_model_profiles::<Od>(gpu, k, rows, opts),
    }
}

/// Model profile of one residual stage at `rung` over `k` instances.
fn residual_profile(
    gpu: &Gpu,
    rung: Precision,
    k: usize,
    rows: usize,
    cols: usize,
    block: usize,
    with_system_upload: bool,
) -> Profile {
    match rung {
        Precision::D1 => {
            residual_model_profile_batched::<f64>(gpu, k, rows, cols, block, with_system_upload)
        }
        Precision::D2 => {
            residual_model_profile_batched::<Dd>(gpu, k, rows, cols, block, with_system_upload)
        }
        Precision::D4 => {
            residual_model_profile_batched::<Qd>(gpu, k, rows, cols, block, with_system_upload)
        }
        Precision::D8 => {
            residual_model_profile_batched::<Od>(gpu, k, rows, cols, block, with_system_upload)
        }
    }
}

/// The one pricing loop: the model profile of every stage of `stages`
/// run as one fused `k`-instance group on `gpu`, in stage order. The
/// factor/correct pair shares one model evaluation per rung, and the
/// first residual stage carries the one-time upload of the high-rung
/// system.
fn stage_profiles(gpu: &Gpu, rows: usize, cols: usize, stages: &[Stage], k: usize) -> Vec<Profile> {
    let mut phase_memo: HashMap<Precision, (Profile, Profile)> = HashMap::new();
    let mut first_residual = true;
    stages
        .iter()
        .map(|&stage| match stage {
            Stage::Factor {
                rung,
                tiles,
                tile_size,
            }
            | Stage::Correct {
                rung,
                tiles,
                tile_size,
            } => {
                let opts = LstsqOptions::tiled(tiles, tile_size, ExecMode::ModelOnly);
                let (factor, correct) = phase_memo
                    .entry(rung)
                    .or_insert_with(|| phase_profiles(gpu, rung, k, rows, &opts))
                    .clone();
                if matches!(stage, Stage::Factor { .. }) {
                    factor
                } else {
                    correct
                }
            }
            Stage::Residual { rung } => {
                let block = match stages[0] {
                    Stage::Factor { tile_size, .. } => tile_size,
                    _ => unreachable!("plans lead with Factor"),
                };
                let p = residual_profile(gpu, rung, k, rows, cols, block, first_residual);
                first_residual = false;
                p
            }
        })
        .collect()
}

impl Planner {
    /// Fresh planner with an empty memo table, tuning plan structures
    /// on the paper's V100 reference model. Every planner shares that
    /// reference and therefore produces the same structures — and the
    /// same bits — for the same jobs.
    pub fn new() -> Self {
        Planner {
            cache: Memo::new(),
            tilings: Memo::new(),
            strategies: Memo::new(),
            fused: Memo::new(),
            group_sizes: Memo::new(),
            reference: Gpu::v100(),
            observer: None,
        }
    }

    /// Fresh planner reporting through `pool`'s observer, when it has
    /// one — what every engine plans with.
    pub(crate) fn for_pool(pool: &crate::pool::DevicePool) -> Self {
        let mut planner = Planner::new();
        planner.observer = pool.observer().cloned();
        planner
    }

    /// Emit one event if an observer is attached (construction skipped
    /// otherwise).
    pub(crate) fn emit(&self, ev: impl FnOnce() -> Event) {
        if let Some(obs) = &self.observer {
            obs.on_event(&ev());
        }
    }

    /// Plan a solve of a `rows × cols` system to `target_digits` on
    /// device `gpu`: the canonical (device-free) stage structure from
    /// the plan search, priced for `gpu`'s timing model.
    pub fn plan(&self, gpu: &Gpu, rows: usize, cols: usize, target_digits: u32) -> Arc<ExecPlan> {
        self.plan_inner(gpu, rows, cols, target_digits, false)
    }

    /// The plan [`Planner::plan`] has already memoized for this job on
    /// `gpu`, if any — a *silent* read: it neither plans on a miss nor
    /// emits a cache event, so probing it moves no `planner.*` count.
    /// Structures are device-free, so any device's hit carries the
    /// arithmetic every device would run.
    pub(crate) fn memoized_plan(
        &self,
        gpu: &Gpu,
        rows: usize,
        cols: usize,
        target_digits: u32,
    ) -> Option<Arc<ExecPlan>> {
        self.cache
            .get(&PlanKey::new(gpu, rows, cols, target_digits, false))
    }

    /// The cheapest *direct* plan for the same job — what the planner
    /// chose before refinement existed. The baseline of the
    /// direct-vs-refinement A/B; [`Planner::plan`] returns exactly this
    /// whenever the search finds no cheaper refinement structure.
    pub fn plan_direct(
        &self,
        gpu: &Gpu,
        rows: usize,
        cols: usize,
        target_digits: u32,
    ) -> Arc<ExecPlan> {
        self.plan_inner(gpu, rows, cols, target_digits, true)
    }

    fn plan_inner(
        &self,
        gpu: &Gpu,
        rows: usize,
        cols: usize,
        target_digits: u32,
        direct_only: bool,
    ) -> Arc<ExecPlan> {
        assert!(cols > 0, "cannot plan an empty system");
        assert!(rows >= cols, "least squares needs rows >= cols");
        let key = PlanKey::new(gpu, rows, cols, target_digits, direct_only);
        let mut hit = true;
        let plan = self.cache.get_or_insert_with(key, || {
            hit = false;
            self.emit(|| Event::PlanCacheMiss {
                rows,
                cols,
                digits: target_digits,
            });
            // (when `gpu` is the reference model the winning structure
            // gets priced twice — once inside the search, once here;
            // both memo layers make that a one-time cost per key)
            let (stages, digits, expected) = self.strategy(rows, cols, target_digits, direct_only);
            let priced = self.price_fused(gpu, rows, cols, &stages, 1);
            Arc::new(
                ExecPlan::from_stages(stages, priced, target_digits, digits)
                    .with_expected_corrections(expected),
            )
        });
        if hit {
            self.emit(|| Event::PlanCacheHit {
                rows,
                cols,
                digits: target_digits,
            });
        }
        plan
    }

    /// Total predicted wall clock of a stage sequence on the reference
    /// model, summed stage by stage over the group of one — the search's
    /// objective function.
    fn reference_wall_ms(&self, rows: usize, cols: usize, stages: &[Stage]) -> f64 {
        self.price_fused(&self.reference, rows, cols, stages, 1)
            .stage_wall_ms
            .iter()
            .sum()
    }

    /// The canonical plan structure for a job: enumerate direct and
    /// refinement candidates, price each on the reference model, keep
    /// the argmin. Memoized per `(rows, cols, target_digits)`
    /// (direct-only baselines are derived, not memoized separately:
    /// they are the argmin over the direct candidates alone).
    fn strategy(
        &self,
        rows: usize,
        cols: usize,
        target_digits: u32,
        direct_only: bool,
    ) -> Strategy {
        if direct_only {
            return self.search(rows, cols, target_digits, true);
        }
        self.strategies
            .get_or_insert_with((rows, cols, target_digits), || {
                self.search(rows, cols, target_digits, false)
            })
    }

    /// The plan search behind [`Planner::strategy`], unmemoized.
    fn search(&self, rows: usize, cols: usize, target_digits: u32, direct_only: bool) -> Strategy {
        let target_rung = Precision::for_digits(target_digits);
        let mut best: Option<(f64, Strategy)> = None;
        let mut candidates = 0usize;
        let mut consider = |this: &Planner, stages: Vec<Stage>, digits: u32, expected: usize| {
            candidates += 1;
            let ms = this.reference_wall_ms(rows, cols, &stages);
            if best.as_ref().map(|(b, _)| ms < *b).unwrap_or(true) {
                best = Some((ms, (stages, digits, expected)));
            }
        };

        // direct candidates, cheapest rung first (ties keep the
        // shallower rung)
        for rung in Precision::LADDER.into_iter().filter(|r| *r >= target_rung) {
            let (tiles, tile_size) = self.tiling(rows, cols, rung);
            let stages = vec![
                Stage::Factor {
                    rung,
                    tiles,
                    tile_size,
                },
                Stage::Correct {
                    rung,
                    tiles,
                    tile_size,
                },
            ];
            consider(self, stages, rung.digits(), 0);
        }

        // refinement candidates: factor below the target rung, iterate
        // residual/correct at the target rung until the digits are met
        if !direct_only {
            for rung in Precision::LADDER.into_iter().filter(|r| *r < target_rung) {
                let per_pass = rung.digits();
                let cap = target_rung.digits();
                let Some(passes) = (1..=MAX_CORRECTIONS)
                    .find(|k| ((*k as u32 + 1) * per_pass).min(cap) >= target_digits)
                else {
                    continue; // cannot reach the target within the cap
                };
                let (tiles, tile_size) = self.tiling(rows, cols, rung);
                let factor = Stage::Factor {
                    rung,
                    tiles,
                    tile_size,
                };
                let correct = Stage::Correct {
                    rung,
                    tiles,
                    tile_size,
                };
                let mut stages = vec![factor, correct];
                for _ in 0..passes {
                    stages.push(Stage::Residual { rung: target_rung });
                    stages.push(correct);
                }
                let digits = ((passes as u32 + 1) * per_pass).min(cap);
                // the expected pass count under the optimistic
                // posterior: slightly more digits per pass, residual
                // rung allowed its own slack — what a stage scheduler
                // books, with online re-booking absorbing the variance
                let opt = per_pass + EXPECTED_DIGITS_SLACK;
                let opt_cap = cap + EXPECTED_DIGITS_SLACK;
                let expected = (1..=passes)
                    .find(|k| ((*k as u32 + 1) * opt).min(opt_cap) >= target_digits)
                    .unwrap_or(passes);
                consider(self, stages, digits, expected);
            }
        }

        let (_, strategy) = best.expect("at least one direct candidate always exists");
        self.emit(|| Event::PlanCandidates {
            rows,
            cols,
            digits: target_digits,
            candidates,
        });
        strategy
    }

    /// The canonical tiling `(tiles, tile_size)` for a shape and rung:
    /// the cheapest candidate on the reference model, memoized.
    fn tiling(&self, rows: usize, cols: usize, precision: Precision) -> (usize, usize) {
        self.tilings
            .get_or_insert_with((rows, cols, precision), || {
                let mut best: Option<(f64, usize)> = None;
                for tile_size in tile_candidates(cols) {
                    let tiles = cols / tile_size;
                    let opts = LstsqOptions::tiled(tiles, tile_size, ExecMode::ModelOnly);
                    let (qr, bs) = phase_profiles(&self.reference, precision, 1, rows, &opts);
                    let ms = qr.wall_ms() + bs.wall_ms();
                    if best.map(|(b, _)| ms < b).unwrap_or(true) {
                        best = Some((ms, tile_size));
                    }
                }
                let (_, tile_size) = best.expect("tile_candidates is never empty");
                (cols / tile_size, tile_size)
            })
    }

    /// Number of distinct plans computed so far.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// The canonical plan for a job plus its fused pricing as a
    /// micro-batched group of `k` instances on `gpu`.
    ///
    /// The *structure* is exactly [`Planner::plan`]'s — fusing is pure
    /// launch packing, so a member job's arithmetic (and bits) never
    /// depends on the group it rides in, the same way it never depends
    /// on the device it lands on. Only the pricing changes: every stage
    /// is costed as one fused launch sequence over `k` instances. A
    /// group of one prices exactly the singleton plan.
    pub fn plan_fused(
        &self,
        gpu: &Gpu,
        rows: usize,
        cols: usize,
        target_digits: u32,
        k: usize,
    ) -> (Arc<ExecPlan>, Arc<FusedProfile>) {
        assert!(k > 0, "a fused group needs at least one instance");
        let plan = self.plan(gpu, rows, cols, target_digits);
        let key = (PlanKey::new(gpu, rows, cols, target_digits, false), k);
        let mut hit = true;
        let fused = self.fused.get_or_insert_with(key, || {
            hit = false;
            self.emit(|| Event::FusedMemoMiss {
                rows,
                cols,
                digits: target_digits,
                group: k,
            });
            Arc::new(self.price_fused(gpu, rows, cols, &plan.stages, k))
        });
        if hit {
            self.emit(|| Event::FusedMemoHit {
                rows,
                cols,
                digits: target_digits,
                group: k,
            });
        }
        (plan, fused)
    }

    /// Price a stage sequence as one fused `k`-instance group on `gpu`.
    fn price_fused(
        &self,
        gpu: &Gpu,
        rows: usize,
        cols: usize,
        stages: &[Stage],
        k: usize,
    ) -> FusedProfile {
        let profiles = stage_profiles(gpu, rows, cols, stages, k);
        let mut total = Profile::new();
        for p in &profiles {
            total.absorb(p);
        }
        FusedProfile {
            group: k,
            predicted_ms: total.wall_ms(),
            predicted_kernel_ms: total.all_kernels_ms(),
            flops_paper: total.total_flops_paper(),
            stage_wall_ms: profiles.iter().map(|p| p.wall_ms()).collect(),
            stage_host_ms: profiles.iter().map(|p| p.lane_split_ms().0).collect(),
        }
    }

    /// Deadline-aware cap on a fused-group size: the largest `k ≤
    /// preferred` whose whole-group fused wall clock on the reference
    /// model fits inside `slack_ms` (a fused group completes as a
    /// whole, so a tight front-member deadline must shrink the group it
    /// waits for). Always at least 1 — an unmeetable deadline still
    /// dispatches the front job alone rather than holding it.
    pub fn deadline_group_cap(
        &self,
        rows: usize,
        cols: usize,
        target_digits: u32,
        preferred: usize,
        slack_ms: f64,
    ) -> usize {
        let mut k = preferred.max(1);
        while k > 1 {
            let (_, fused) = self.plan_fused(&self.reference, rows, cols, target_digits, k);
            if fused.predicted_ms <= slack_ms {
                break;
            }
            k -= 1;
        }
        k
    }

    /// The occupancy-aware preferred fused-group size for a job shape:
    /// the smallest candidate `k ≤ max_group` whose fused per-job
    /// predicted cost lands within `tolerance` of the best candidate's.
    ///
    /// Per-job fused cost falls as `k` grows — occupancy climbs until
    /// the fused grid fills whole waves of the device, and every
    /// per-launch constant spreads over more instances — then flattens
    /// into a plateau of wave-quantization sweet spots. The tolerance
    /// picks the *start* of the plateau: beyond it, bigger groups buy
    /// nothing but latency (a group completes as a whole).
    ///
    /// Sized on the reference model, like tilings and plan structures:
    /// group size never changes bits, but reference sizing keeps the
    /// whole schedule deterministic and device-order-free.
    pub fn preferred_group_size(
        &self,
        rows: usize,
        cols: usize,
        target_digits: u32,
        max_group: usize,
        tolerance: f64,
    ) -> usize {
        let cap = max_group.max(1);
        let key = (rows, cols, target_digits, cap, tolerance.to_bits());
        self.group_sizes.get_or_insert_with(key, || {
            const CANDIDATES: [usize; 16] =
                [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256];
            let mut candidates: Vec<usize> =
                CANDIDATES.iter().copied().filter(|&k| k < cap).collect();
            candidates.push(cap);
            let (stages, _, _) = self.strategy(rows, cols, target_digits, false);
            let per_job: Vec<f64> = candidates
                .iter()
                .map(|&k| {
                    self.price_fused(&self.reference, rows, cols, &stages, k)
                        .per_job_ms()
                })
                .collect();
            let best = per_job.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            candidates
                .iter()
                .zip(&per_job)
                .find(|(_, &ms)| ms <= best * (1.0 + tolerance))
                .map(|(&k, _)| k)
                .unwrap_or(1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_tile_exactly() {
        for cols in [1, 7, 24, 96, 128, 1000, 1366, 2048] {
            let c = tile_candidates(cols);
            assert!(!c.is_empty(), "no candidates for {cols}");
            for ts in c {
                assert_eq!(cols % ts, 0, "{ts} does not tile {cols}");
                assert!(ts <= MAX_TILE_SIZE, "tile {ts} exceeds a thread block");
            }
        }
    }

    #[test]
    fn wide_prime_factors_are_not_skipped() {
        // regression: the preferred-size shortlist proposed only {2, 1}
        // for 1366 = 2 * 683, silently skipping the launchable 683-wide
        // tile (683 <= MAX_TILE_SIZE)
        let c = tile_candidates(1366);
        assert!(c.contains(&683), "683 missing from {c:?}");
        assert_eq!(c, vec![683, 2, 1]);
        // and the planner actually prefers it: 2 wide tiles beat 683
        // launch-gap-dominated 2-wide ones
        let plan = Planner::new().plan_direct(&Gpu::v100(), 1366, 1366, 25);
        assert_eq!(plan.factor().2, 683);
    }

    #[test]
    fn concurrent_planning_caches_once() {
        // regression: plan() took the memo lock twice (get, then
        // insert), so racing callers recomputed and re-inserted the
        // same key; with the entry API the cache holds exactly one
        // entry per key no matter the interleaving
        let planner = Planner::new();
        #[expect(clippy::disallowed_methods, reason = "the test races planner threads")]
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        let p = planner.plan(&Gpu::v100(), 96, 96, 25);
                        let (_, tiles, tile_size) = p.factor();
                        assert_eq!(tiles * tile_size, 96);
                        let q = planner.plan(&Gpu::a100(), 128, 128, 50);
                        let (_, tiles, tile_size) = q.factor();
                        assert_eq!(tiles * tile_size, 128);
                    }
                });
            }
        });
        assert_eq!(planner.cached_plans(), 2, "racing planners duplicated work");
    }

    #[test]
    fn no_plan_exceeds_the_block_limit() {
        // 1366 = 2 * 683: the only launchable tilings are narrow; the
        // planner must not fabricate a 1366-thread block
        let plan = Planner::new().plan(&Gpu::v100(), 1366, 1366, 25);
        let (_, tiles, tile_size) = plan.factor();
        assert!(tile_size <= MAX_TILE_SIZE);
        assert_eq!(tiles * tile_size, 1366);
    }

    #[test]
    fn same_name_different_constants_do_not_share_plans() {
        let planner = Planner::new();
        let v100 = Gpu::v100();
        let mut derated = Gpu::v100();
        derated.peak_dp_gflops /= 4.0;
        derated.mem_bw_gbs /= 4.0;
        let a = planner.plan(&v100, 128, 128, 25);
        let b = planner.plan(&derated, 128, 128, 25);
        assert_eq!(planner.cached_plans(), 2, "derated clone hit the cache");
        assert!(
            b.predicted_ms > a.predicted_ms,
            "derated V100 predicted no slower: {} vs {}",
            b.predicted_ms,
            a.predicted_ms
        );
    }

    #[test]
    fn searched_plan_never_loses_to_the_direct_baseline() {
        let planner = Planner::new();
        let gpu = Gpu::v100();
        for (rows, cols, digits) in [
            (64, 64, 25),
            (96, 96, 50),
            (256, 256, 50),
            (288, 256, 100),
            (1024, 1024, 50),
        ] {
            let plan = planner.plan(&gpu, rows, cols, digits);
            let direct = planner.plan_direct(&gpu, rows, cols, digits);
            assert!(
                plan.predicted_ms <= direct.predicted_ms + 1e-12,
                "{rows}x{cols} d{digits}: searched {} ms > direct {} ms",
                plan.predicted_ms,
                direct.predicted_ms
            );
            assert!(plan.predicted_digits >= digits, "digits not covered");
            assert!(direct.is_direct());
        }
    }

    #[test]
    fn refinement_wins_the_paper_1024_dd_to_qd_case() {
        // the acceptance bar: at the paper's 1024 x 1024 with a quad
        // double target, factoring in double double and refining beats
        // the direct quad double solve on predicted wall clock
        let planner = Planner::new();
        let plan = planner.plan(&Gpu::v100(), 1024, 1024, 50);
        let direct = planner.plan_direct(&Gpu::v100(), 1024, 1024, 50);
        assert!(
            !plan.is_direct(),
            "search kept the direct plan: {}",
            plan.summary()
        );
        assert!(plan.factor_precision() < Precision::D4);
        assert_eq!(plan.solution_precision(), Precision::D4);
        assert!(
            plan.predicted_ms < direct.predicted_ms,
            "refinement {} ms not under direct {} ms",
            plan.predicted_ms,
            direct.predicted_ms
        );
        assert!(plan.predicted_digits >= 50);
    }

    #[test]
    fn plan_structure_is_placement_invariant() {
        // regression (and its sharpened successor): plan *structure*
        // must be identical across devices — tilings, rungs and pass
        // counts — or the same job would round differently depending on
        // where the scheduler put it. Timing must still differ.
        let planner = Planner::new();
        for (rows, cols, digits) in [(24, 24, 100), (16, 16, 25), (96, 96, 50), (128, 96, 12)] {
            let v = planner.plan(&Gpu::v100(), rows, cols, digits);
            let p = planner.plan(&Gpu::p100(), rows, cols, digits);
            let a = planner.plan(&Gpu::a100(), rows, cols, digits);
            assert_eq!(
                v.stages, p.stages,
                "{rows}x{cols} d{digits}: V100/P100 structures differ"
            );
            assert_eq!(v.stages, a.stages);
            assert_ne!(v.predicted_ms, p.predicted_ms, "timing should differ");
        }
    }

    #[test]
    fn predicted_digits_cover_every_target() {
        let planner = Planner::new();
        let gpu = Gpu::v100();
        for digits in [1, 10, 14, 15, 25, 29, 30, 50, 60, 61, 100, 123, 200] {
            let plan = planner.plan(&gpu, 64, 64, digits);
            assert!(
                plan.predicted_digits >= digits.min(Precision::D8.digits()),
                "target {digits}: plan {} predicts only {}",
                plan.summary(),
                plan.predicted_digits
            );
            // stage sanity: leads with Factor, alternates
            // Residual/Correct afterwards
            assert!(matches!(plan.stages[0], Stage::Factor { .. }));
            assert!(matches!(plan.stages[1], Stage::Correct { .. }));
            assert_eq!(plan.stages.len(), 2 + 2 * plan.corrections());
        }
    }

    #[test]
    fn shallow_targets_stay_direct_single_rung() {
        // a hardware-double target has no cheaper rung to refine from:
        // the plan must be the direct solve
        let plan = Planner::new().plan(&Gpu::v100(), 37, 37, 10);
        assert!(plan.is_direct());
        assert_eq!(plan.factor_precision(), Precision::D1);
        let (_, tiles, tile_size) = plan.factor();
        assert_eq!(tiles * tile_size, 37);
    }

    #[test]
    fn direct_plan_uses_the_cheapest_tiling_candidate() {
        // the tiling argmin property: on the reference device the
        // chosen direct plan is no slower than any candidate tiling of
        // the same rung (regression guard for the comparison inside
        // `Planner::tiling`)
        let gpu = Gpu::v100();
        let planner = Planner::new();
        for (rows, cols, digits) in [(96, 96, 25), (128, 96, 50), (64, 64, 100)] {
            let plan = planner.plan_direct(&gpu, rows, cols, digits);
            let rung = plan.factor_precision();
            for ts in tile_candidates(cols) {
                let opts = LstsqOptions::tiled(cols / ts, ts, ExecMode::ModelOnly);
                let (qr, bs) = phase_profiles(&gpu, rung, 1, rows, &opts);
                let ms = qr.wall_ms() + bs.wall_ms();
                assert!(
                    plan.predicted_ms <= ms + 1e-12,
                    "{rows}x{cols} d{digits}: tiling {}x{ts} ({ms} ms) beats the plan ({} ms)",
                    cols / ts,
                    plan.predicted_ms
                );
            }
        }
    }

    #[test]
    fn plans_differ_across_shapes() {
        // the acceptance bar: the cost model must steer different job
        // shapes to different tile configurations
        let gpu = Gpu::v100();
        let planner = Planner::new();
        let small = planner.plan_direct(&gpu, 24, 24, 25);
        let large = planner.plan_direct(&gpu, 768, 768, 25);
        assert_ne!(
            (small.factor().1, small.factor().2),
            (large.factor().1, large.factor().2),
            "planner chose one tiling for very different shapes"
        );
    }

    #[test]
    fn fused_pricing_lifts_small_shape_throughput() {
        // the acceptance bar of the micro-batching issue: on the
        // paper's small shapes (32..128 unknowns, d/dd rungs) a fused
        // group at the preferred size predicts >= 2x solves/sec over
        // singleton launches
        let planner = Planner::new();
        let gpu = Gpu::v100();
        for (n, digits) in [(32, 12), (64, 12), (128, 12), (32, 25), (64, 25), (128, 25)] {
            let single = planner.plan(&gpu, n, n, digits);
            let k = planner.preferred_group_size(n, n, digits, 64, 0.05);
            assert!(k > 1, "{n}x{n} d{digits}: preferred group stuck at 1");
            let (_, fused) = planner.plan_fused(&gpu, n, n, digits, k);
            let speedup = single.predicted_ms / fused.per_job_ms();
            assert!(
                speedup >= 2.0,
                "{n}x{n} d{digits}: fused x{k} only {speedup:.2}x"
            );
        }
    }

    #[test]
    fn fused_group_of_one_prices_the_singleton_plan() {
        let planner = Planner::new();
        let gpu = Gpu::p100();
        let plan = planner.plan(&gpu, 96, 96, 50);
        let (p2, fused) = planner.plan_fused(&gpu, 96, 96, 50, 1);
        assert_eq!(plan, p2);
        assert_eq!(fused.group, 1);
        assert_eq!(fused.predicted_ms, plan.predicted_ms);
        assert_eq!(fused.predicted_kernel_ms, plan.predicted_kernel_ms);
        assert_eq!(fused.flops_paper, plan.flops_paper);
        // one pricer: every stage's wall is the singleton plan's,
        // exactly, and the prep split lines up with it
        assert_eq!(fused.stage_wall_ms, plan.stage_wall_ms);
        assert_eq!(fused.stage_host_ms.len(), plan.stages.len());
    }

    #[test]
    fn fused_profile_accounts_every_member() {
        let planner = Planner::new();
        let gpu = Gpu::v100();
        let plan = planner.plan(&gpu, 64, 64, 25);
        let (_, fused) = planner.plan_fused(&gpu, 64, 64, 25, 12);
        // device-independent flops scale exactly with the group
        assert!((fused.flops_paper - 12.0 * plan.flops_paper).abs() < 1e-6 * fused.flops_paper);
        // the fused group is cheaper than 12 singletons but costs more
        // than one (no free lunch from packing)
        assert!(fused.predicted_ms < 12.0 * plan.predicted_ms);
        assert!(fused.predicted_ms > plan.predicted_ms);
        // stage shares compose to the total
        let sum: f64 = fused.stage_wall_ms.iter().sum();
        assert!((sum - fused.predicted_ms).abs() < 1e-9);
    }

    #[test]
    fn group_size_selection_regression() {
        // the sweet-spot rule: smallest candidate within tolerance of
        // the best per-job cost — deterministic, memoized, capped
        let planner = Planner::new();
        let k = planner.preferred_group_size(32, 32, 25, 64, 0.05);
        let again = planner.preferred_group_size(32, 32, 25, 64, 0.05);
        assert_eq!(k, again, "group size not deterministic");
        assert!(k > 1, "32x32 dd: fusion should pay");
        assert!(k <= 64);
        // no candidate k' < k beats the chosen one by more than the
        // tolerance — k really is the plateau start
        let per_job = |k: usize| {
            let (_, f) = planner.plan_fused(&Gpu::v100(), 32, 32, 25, k);
            f.per_job_ms()
        };
        let chosen = per_job(k);
        for smaller in [1, 2, 4, 8].iter().filter(|&&s| s < k) {
            assert!(
                per_job(*smaller) >= chosen,
                "k={smaller} beats the chosen k={k}"
            );
        }
        // the cap binds
        assert!(planner.preferred_group_size(32, 32, 25, 4, 0.05) <= 4);
        // big shapes already fill the device: fusing buys little, the
        // preferred group stays small
        let big = planner.preferred_group_size(1024, 1024, 25, 64, 0.05);
        assert!(big < k, "1024x1024 preferred {big} >= small-shape {k}");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the re-entrant observer needs its own lock and flags"
    )]
    fn observer_may_reenter_the_planner() {
        // regression: the plan-cache and fused-memo *hit* paths once
        // emitted their events while the cache MutexGuard was still
        // live (the `if let Some(p) = self.cache.lock()...` temporary
        // lives through the whole branch), so an observer that called
        // back into the planner self-deadlocked on the std Mutex. The
        // guard now drops before every emit; a re-entrant observer
        // must complete. This test hangs forever on the old code.
        use crate::pool::DevicePool;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Mutex as StdMutex;
        struct Reenter {
            planner: StdMutex<Option<Arc<Planner>>>,
            reentered: AtomicU64,
            busy: AtomicBool,
        }
        impl Observer for Reenter {
            fn on_event(&self, ev: &Event) {
                if !matches!(ev, Event::PlanCacheHit { .. } | Event::FusedMemoHit { .. }) {
                    return;
                }
                // one level of re-entrancy is the interesting case;
                // the flag keeps the hit→observer→hit loop finite
                if self.busy.swap(true, Ordering::SeqCst) {
                    return;
                }
                if let Some(p) = self.planner.lock().unwrap().as_ref() {
                    // touch every memo the emit paths guard: the plan
                    // cache, the fused memo, and the cache-size probe
                    let _ = p.plan(&Gpu::p100(), 48, 48, 25);
                    let _ = p.plan_fused(&Gpu::p100(), 48, 48, 25, 2);
                    let _ = p.cached_plans();
                    self.reentered.fetch_add(1, Ordering::Relaxed);
                }
                self.busy.store(false, Ordering::SeqCst);
            }
        }
        let obs = Arc::new(Reenter {
            planner: StdMutex::new(None),
            reentered: AtomicU64::new(0),
            busy: AtomicBool::new(false),
        });
        let mut pool = DevicePool::homogeneous(&Gpu::v100(), 1);
        pool.attach_observer(obs.clone());
        let planner = Arc::new(Planner::for_pool(&pool));
        *obs.planner.lock().unwrap() = Some(planner.clone());
        let gpu = Gpu::v100();
        let baseline = planner.plan(&gpu, 64, 64, 25); // miss: no re-entry
        let hit = planner.plan(&gpu, 64, 64, 25); // hit: observer re-enters
        assert_eq!(baseline, hit, "re-entrant observation changed the plan");
        let (_, fused) = planner.plan_fused(&gpu, 64, 64, 25, 4); // fused miss
        let (_, fused2) = planner.plan_fused(&gpu, 64, 64, 25, 4); // fused hit
        assert_eq!(fused, fused2);
        assert!(
            obs.reentered.load(Ordering::Relaxed) >= 2,
            "observer never actually re-entered the planner"
        );
    }

    #[test]
    fn memoization_hits() {
        let planner = Planner::new();
        let gpu = Gpu::v100();
        let a = planner.plan(&gpu, 64, 64, 25);
        let b = planner.plan(&gpu, 64, 64, 25);
        assert_eq!(a, b);
        assert_eq!(planner.cached_plans(), 1);
        planner.plan(&gpu, 64, 64, 80); // deeper target: new plan
        assert_eq!(planner.cached_plans(), 2);
        // the direct baseline caches separately, never clobbering the
        // searched plan
        let d = planner.plan_direct(&gpu, 64, 64, 25);
        assert!(d.is_direct());
        assert_eq!(planner.plan(&gpu, 64, 64, 25), a);
    }
}
